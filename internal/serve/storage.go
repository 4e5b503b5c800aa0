package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/fsx"
)

// Entry is one stored dataset, loaded with its panel, plus the quarantine
// report its upload produced. Entries are immutable once
// stored — a re-upload under the same name replaces the entry wholesale —
// so concurrent readers never need a lock past the store lookup.
type Entry struct {
	Name       string
	Hash       string // content hash; the artifact-cache key component
	Dataset    *dataset.Dataset
	Quarantine *dataset.QuarantineReport
}

// Info is the metadata view of an entry that list/get endpoints render.
type Info struct {
	Name            string `json:"name"`
	Hash            string `json:"hash"`
	Users           int    `json:"users"`
	Switches        int    `json:"switches"`
	Plans           int    `json:"plans"`
	Markets         int    `json:"markets"`
	RowsRead        int    `json:"rows_read"`
	RowsQuarantined int    `json:"rows_quarantined"`
}

func (e *Entry) info() Info {
	i := Info{
		Name:     e.Name,
		Hash:     e.Hash,
		Users:    len(e.Dataset.Users),
		Switches: len(e.Dataset.Switches),
		Plans:    len(e.Dataset.Plans),
		Markets:  len(e.Dataset.Markets),
	}
	if e.Quarantine != nil {
		i.RowsRead = e.Quarantine.RowsRead
		i.RowsQuarantined = len(e.Quarantine.Diags)
	}
	return i
}

// HashDataset content-addresses a dataset: sha256 over the three
// deterministic CSV streams in fixed order. Two datasets with identical
// rows hash identically whatever path they arrived by, which is what lets
// the artifact cache serve byte-identical results across re-uploads. Each
// table streams through WriteAll's sequential encoder, so hashing never
// buffers a whole table.
func HashDataset(d *dataset.Dataset) (string, error) {
	h := sha256.New()
	if err := dataset.WriteAll(h, d.Users); err != nil {
		return "", err
	}
	if err := dataset.WriteAll(h, d.Switches); err != nil {
		return "", err
	}
	if err := dataset.WriteAll(h, d.Plans); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Store is the dataset storage backend. Implementations must be safe for
// concurrent use: the server calls Put/Delete from upload handlers while
// query handlers Get the same names.
type Store interface {
	// Put stores a dataset under name, replacing any previous entry, and
	// returns its content hash. The dataset must come from a loader (which
	// validates it and builds its panel); the store takes ownership.
	Put(name string, d *dataset.Dataset, rep *dataset.QuarantineReport) (string, error)
	// Get returns the current entry for name.
	Get(name string) (*Entry, bool)
	// List returns metadata for every stored dataset, sorted by name.
	List() []Info
	// Delete removes name, reporting whether it existed.
	Delete(name string) bool
}

// MemStore is the in-memory backend: a mutex-guarded name→entry map.
type MemStore struct {
	mu sync.RWMutex
	m  map[string]*Entry
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{m: make(map[string]*Entry)} }

// Put implements Store.
func (s *MemStore) Put(name string, d *dataset.Dataset, rep *dataset.QuarantineReport) (string, error) {
	hash, err := HashDataset(d)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.m[name] = &Entry{Name: name, Hash: hash, Dataset: d, Quarantine: rep}
	s.mu.Unlock()
	return hash, nil
}

// Get implements Store.
func (s *MemStore) Get(name string) (*Entry, bool) {
	s.mu.RLock()
	e, ok := s.m[name]
	s.mu.RUnlock()
	return e, ok
}

// List implements Store.
func (s *MemStore) List() []Info {
	s.mu.RLock()
	out := make([]Info, 0, len(s.m))
	for _, e := range s.m {
		out = append(out, e.info())
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Delete implements Store.
func (s *MemStore) Delete(name string) bool {
	s.mu.Lock()
	_, ok := s.m[name]
	delete(s.m, name)
	s.mu.Unlock()
	return ok
}

// DiskStore persists datasets content-addressed under a root directory:
//
//	root/<name>/<hash>/{users.csv,switches.csv,plans.csv,quarantine.json}
//	root/<name>/CURRENT  — the hash the name currently points at
//
// Every write goes through internal/fsx (staged temp file + rename), so a
// crash mid-Put leaves either the old CURRENT or the new one, never a
// pointer to a half-written dataset. CURRENT reads and dataset loads are
// retried with capped exponential backoff (fsx.Retry), riding out the
// transient I/O failures the chaos suite injects. A loaded entry is cached
// in memory; the hash pointer makes staleness detection exact.
type DiskStore struct {
	root string

	mu    sync.Mutex
	cache map[string]*Entry
}

// currentFile is the per-name pointer file naming the live hash.
const currentFile = "CURRENT"

// NewDiskStore opens (creating if needed) a disk store rooted at root.
func NewDiskStore(root string) (*DiskStore, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store root: %w", err)
	}
	return &DiskStore{root: root, cache: make(map[string]*Entry)}, nil
}

// Put implements Store: save the dataset under its content hash, then
// atomically repoint CURRENT.
func (s *DiskStore) Put(name string, d *dataset.Dataset, rep *dataset.QuarantineReport) (string, error) {
	hash, err := HashDataset(d)
	if err != nil {
		return "", err
	}
	dir := filepath.Join(s.root, name, hash)
	if err := d.SaveDir(dir); err != nil {
		return "", err
	}
	ctx := context.Background()
	if rep != nil {
		repJSON, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return "", err
		}
		if err := fsx.RetryWrite(ctx, filepath.Join(dir, "quarantine.json"), repJSON, 0o644); err != nil {
			return "", err
		}
	}
	old, _ := s.currentHash(name)
	if err := fsx.RetryWrite(ctx, filepath.Join(s.root, name, currentFile), []byte(hash+"\n"), 0o644); err != nil {
		return "", err
	}
	if old != "" && old != hash {
		os.RemoveAll(filepath.Join(s.root, name, old)) // best-effort GC of the replaced version
	}
	s.mu.Lock()
	s.cache[name] = &Entry{Name: name, Hash: hash, Dataset: d, Quarantine: rep}
	s.mu.Unlock()
	return hash, nil
}

func (s *DiskStore) currentHash(name string) (string, error) {
	b, err := fsx.RetryRead(context.Background(), filepath.Join(s.root, name, currentFile))
	if err != nil {
		return "", err
	}
	h := string(b)
	for len(h) > 0 && (h[len(h)-1] == '\n' || h[len(h)-1] == '\r') {
		h = h[:len(h)-1]
	}
	return h, nil
}

// Get implements Store: serve from the in-memory cache when its hash still
// matches CURRENT, otherwise (re)load from disk with retry.
func (s *DiskStore) Get(name string) (*Entry, bool) {
	hash, err := s.currentHash(name)
	if err != nil {
		return nil, false
	}
	s.mu.Lock()
	if e, ok := s.cache[name]; ok && e.Hash == hash {
		s.mu.Unlock()
		return e, true
	}
	s.mu.Unlock()

	e, err := s.load(name, hash)
	if err != nil {
		return nil, false
	}
	s.mu.Lock()
	s.cache[name] = e
	s.mu.Unlock()
	return e, true
}

// load reads one version dir into an Entry, retrying transient failures.
func (s *DiskStore) load(name, hash string) (*Entry, error) {
	dir := filepath.Join(s.root, name, hash)
	var d *dataset.Dataset
	err := fsx.Retry(context.Background(), func() error {
		var err error
		d, err = dataset.LoadDir(dir)
		return err
	})
	if err != nil {
		return nil, err
	}
	e := &Entry{Name: name, Hash: hash, Dataset: d}
	if b, err := os.ReadFile(filepath.Join(dir, "quarantine.json")); err == nil {
		var rep dataset.QuarantineReport
		if json.Unmarshal(b, &rep) == nil {
			e.Quarantine = &rep
		}
	}
	return e, nil
}

// List implements Store: every name with a readable CURRENT pointer.
func (s *DiskStore) List() []Info {
	ents, err := os.ReadDir(s.root)
	if err != nil {
		return nil
	}
	var out []Info
	for _, de := range ents {
		if !de.IsDir() {
			continue
		}
		if e, ok := s.Get(de.Name()); ok {
			out = append(out, e.info())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Delete implements Store.
func (s *DiskStore) Delete(name string) bool {
	s.mu.Lock()
	delete(s.cache, name)
	s.mu.Unlock()
	dir := filepath.Join(s.root, name)
	if _, err := os.Stat(dir); err != nil {
		return false
	}
	return os.RemoveAll(dir) == nil
}
