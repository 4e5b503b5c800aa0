package serve

import (
	"testing"

	"github.com/nwca/broadband/internal/synth"
)

// TestHashDatasetPinned pins the content hash of a small fixed world. The
// hash keys every cached artifact and every stored dataset, so a change to
// the hashed CSV bytes (encoder, column set, float format) must show up
// here as a deliberate update of the expected value.
func TestHashDatasetPinned(t *testing.T) {
	w, err := synth.Build(synth.Config{Seed: 7, Users: 200, FCCUsers: 50, Days: 1, SwitchTarget: 20})
	if err != nil {
		t.Fatal(err)
	}
	got, err := HashDataset(&w.Data)
	if err != nil {
		t.Fatal(err)
	}
	if want := "9a5026199d7da528183525a85d68112655703f8151511c5ec94ed10ab93e43e4"; got != want {
		t.Fatalf("HashDataset = %s, want %s", got, want)
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	d := testWorld(t)
	s := NewMemStore()
	hash, err := s.Put("alpha", d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hash) != 64 {
		t.Fatalf("hash %q is not sha256 hex", hash)
	}
	e, ok := s.Get("alpha")
	if !ok || e.Hash != hash || e.Dataset != d {
		t.Fatalf("Get returned %+v, %v", e, ok)
	}
	// Same content, same hash: the cache key survives re-upload.
	hash2, err := s.Put("beta", d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hash2 != hash {
		t.Fatalf("identical datasets hashed %s vs %s", hash, hash2)
	}
	infos := s.List()
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "beta" {
		t.Fatalf("List = %+v", infos)
	}
	if infos[0].Users != len(d.Users) {
		t.Fatalf("info users %d, want %d", infos[0].Users, len(d.Users))
	}
	if !s.Delete("alpha") || s.Delete("alpha") {
		t.Fatal("Delete semantics broken")
	}
	if _, ok := s.Get("alpha"); ok {
		t.Fatal("deleted entry still resolvable")
	}
}

func TestDiskStorePersistsAcrossReopen(t *testing.T) {
	d := testWorld(t)
	root := t.TempDir()
	s1, err := NewDiskStore(root)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := s1.Put("panel", d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh store over the same root must serve the same content.
	s2, err := NewDiskStore(root)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s2.Get("panel")
	if !ok {
		t.Fatal("reopened store lost the dataset")
	}
	if e.Hash != hash {
		t.Fatalf("reopened hash %s, want %s", e.Hash, hash)
	}
	if len(e.Dataset.Users) != len(d.Users) {
		t.Fatalf("reopened %d users, want %d", len(e.Dataset.Users), len(d.Users))
	}
	if err := e.Dataset.Validate(); err != nil {
		t.Fatalf("reopened dataset invalid: %v", err)
	}
	// The reloaded content must hash to the pointer it was stored under —
	// the corruption check the soak test runs at scale.
	if rehash, err := HashDataset(e.Dataset); err != nil || rehash != hash {
		t.Fatalf("reloaded content hashes %s (%v), want %s", rehash, err, hash)
	}
	if got := s2.List(); len(got) != 1 || got[0].Name != "panel" {
		t.Fatalf("List = %+v", got)
	}
	if !s2.Delete("panel") {
		t.Fatal("Delete failed")
	}
	if _, ok := s2.Get("panel"); ok {
		t.Fatal("deleted entry still resolvable")
	}
}
