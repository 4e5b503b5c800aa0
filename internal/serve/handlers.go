package serve

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/experiments"
	"github.com/nwca/broadband/internal/golden"
	"github.com/nwca/broadband/internal/scenario"
	"github.com/nwca/broadband/internal/synth"
)

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "internal error", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

// writeErr writes a JSON error envelope.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// datasetName extracts and validates the {name} path value.
func datasetName(w http.ResponseWriter, r *http.Request) (string, bool) {
	name := r.PathValue("name")
	if !nameRE.MatchString(name) {
		writeErr(w, http.StatusBadRequest, "invalid dataset name %q (want %s)", name, nameRE)
		return "", false
	}
	return name, true
}

// seedParam parses the ?seed= query (default 1).
func seedParam(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	q := r.URL.Query().Get("seed")
	if q == "" {
		return 1, true
	}
	seed, err := strconv.ParseUint(q, 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid seed %q", q)
		return 0, false
	}
	return seed, true
}

// artifactInfo is one registry entry as the list endpoint renders it.
type artifactInfo struct {
	ID    string `json:"id"`
	Slug  string `json:"slug"`
	Title string `json:"title"`
}

// handleArtifactList — GET /v1/artifacts: the full registry.
func (s *Server) handleArtifactList(w http.ResponseWriter, r *http.Request) {
	reg := broadband.Experiments()
	out := make([]artifactInfo, len(reg))
	for i, e := range reg {
		out[i] = artifactInfo{ID: e.ID, Slug: golden.Slug(e.ID), Title: e.Title}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleDatasetList — GET /v1/datasets.
func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	infos := s.store.List()
	if infos == nil {
		infos = []Info{}
	}
	writeJSON(w, http.StatusOK, infos)
}

// handleDatasetGet — GET /v1/datasets/{name}: metadata + quarantine report.
func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	name, ok := datasetName(w, r)
	if !ok {
		return
	}
	e, ok := s.store.Get(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "no dataset %q", name)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Info
		Quarantine *dataset.QuarantineReport `json:"quarantine,omitempty"`
	}{e.info(), e.Quarantine})
}

// handleDatasetDelete — DELETE /v1/datasets/{name}.
func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	name, ok := datasetName(w, r)
	if !ok {
		return
	}
	if !s.store.Delete(name) {
		writeErr(w, http.StatusNotFound, "no dataset %q", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// uploadTables maps acceptable multipart part names to the table file the
// loader expects. Gzipped variants are decompressed in flight.
var uploadTables = map[string]string{
	"users.csv": "users.csv", "users.csv.gz": "users.csv",
	"switches.csv": "switches.csv", "switches.csv.gz": "switches.csv",
	"plans.csv": "plans.csv", "plans.csv.gz": "plans.csv",
}

// handleUpload — POST /v1/datasets/{name}: multipart panel upload through
// the quarantine trust boundary. The body streams into a scratch dir (a
// disconnect or deadline mid-copy discards it — nothing partial is ever
// visible to the store), then LoadDirRobust quarantines dirty rows under
// the configured error budget, and only a dataset that comes out valid is
// stored. Client faults map to 4xx: deadline 408, oversize 413, corrupt
// transport 400, budget exceeded 422.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	name, ok := datasetName(w, r)
	if !ok {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	mr, err := r.MultipartReader()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "multipart: %v", err)
		return
	}

	tmp, err := os.MkdirTemp("", "bbserve-upload-*")
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "scratch dir: %v", err)
		return
	}
	defer os.RemoveAll(tmp)

	seen := map[string]bool{}
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			failBody(w, err, "upload")
			return
		}
		pname := part.FileName()
		if pname == "" {
			pname = part.FormName()
		}
		table, ok := uploadTables[pname]
		if !ok {
			writeErr(w, http.StatusBadRequest, "unexpected part %q (want users.csv, switches.csv, plans.csv, optionally .gz)", pname)
			return
		}
		if err := copyPart(tmp, table, pname, part); err != nil {
			failBody(w, err, "part %s", pname)
			return
		}
		seen[table] = true
	}
	for _, table := range []string{"users.csv", "switches.csv", "plans.csv"} {
		if !seen[table] {
			writeErr(w, http.StatusBadRequest, "upload missing table %s", table)
			return
		}
	}

	d, rep, err := dataset.LoadDirRobust(tmp, s.cfg.Quarantine)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "quarantine rejected upload: %v", err)
		return
	}
	hash, err := s.store.Put(name, d, rep)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "store: %v", err)
		return
	}
	// The reply describes what was stored, not what a Get finds now: a
	// DELETE may already have raced in behind the Put.
	stored := &Entry{Name: name, Hash: hash, Dataset: d, Quarantine: rep}
	writeJSON(w, http.StatusCreated, struct {
		Info
		Quarantine *dataset.QuarantineReport `json:"quarantine,omitempty"`
	}{stored.info(), rep})
	s.logf("stored dataset %s@%s: %d users, %d rows quarantined", name, hash[:12], len(d.Users), len(rep.Diags))
}

// copyPart streams one table into the scratch dir, decompressing .gz parts.
func copyPart(dir, table, pname string, part io.Reader) error {
	src := part
	if strings.HasSuffix(pname, ".gz") {
		zr, err := gzip.NewReader(part)
		if err != nil {
			return fmt.Errorf("gzip: %w", err)
		}
		defer zr.Close()
		src = zr
	}
	f, err := os.Create(filepath.Join(dir, table))
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, src); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// failBody responds to a request-body fault and marks the connection for
// closure: the remaining body is a misbehaving client's (dribbled, dead,
// or corrupt), and without Connection: close the server would drain it at
// the client's pace to ready the connection for reuse — exactly the
// wait-it-out behavior the deadline exists to prevent.
func failBody(w http.ResponseWriter, err error, format string, args ...any) {
	code, msg := uploadFault(err)
	w.Header().Set("Connection", "close")
	writeErr(w, code, format+": %s", append(args, msg)...)
}

// uploadFault classifies a body-read failure: the server's fault is never
// in this path, so everything maps to a 4xx — deadline expiry (slow
// loris) 408, body cap 413, everything else (disconnects, corrupt gzip,
// malformed multipart) 400.
func uploadFault(err error) (int, string) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout, "deadline exceeded reading body"
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, err.Error()
	default:
		return http.StatusBadRequest, err.Error()
	}
}

// resolveArtifact finds a registry entry by slug ("fig02") or exact ID
// ("Fig. 2").
func resolveArtifact(key string) (broadband.ReportEntry, bool) {
	for _, e := range broadband.Experiments() {
		if e.ID == key || golden.Slug(e.ID) == key {
			return e, true
		}
	}
	return broadband.ReportEntry{}, false
}

// handleArtifact — GET /v1/datasets/{name}/artifacts/{slug}?seed=N: one
// registry artifact in canonical golden JSON. Results are cached keyed on
// (dataset content hash, artifact, seed), so concurrent identical queries
// are served the same bytes and each result is computed once per upload.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	name, ok := datasetName(w, r)
	if !ok {
		return
	}
	entry, ok := resolveArtifact(r.PathValue("slug"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown artifact %q", r.PathValue("slug"))
		return
	}
	seed, ok := seedParam(w, r)
	if !ok {
		return
	}
	e, ok := s.store.Get(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "no dataset %q", name)
		return
	}
	res, err := s.artifact(e, entry, seed)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%s: %v", entry.ID, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Dataset-Hash", e.Hash)
	w.Header().Set("X-Artifact-Id", entry.ID)
	w.Write(res.data)
}

// artifact returns one registry artifact of a stored dataset at seed from
// the result cache, running it on a miss. It is the only place the server
// computes an artifact, whether a GET asks for it alone or /reports as
// part of the whole registry.
func (s *Server) artifact(e *Entry, entry broadband.ReportEntry, seed uint64) (artifactResult, error) {
	return s.cache.get(resultKey{hash: e.Hash, artifact: entry.ID, seed: seed}, func() (artifactResult, error) {
		rep, err := broadband.Run(entry.ID, e.Dataset, seed)
		if err != nil {
			return artifactResult{}, err
		}
		data, err := golden.Marshal(rep)
		return artifactResult{data: data, title: rep.Title(), text: rep.Render()}, err
	})
}

// renderedReport is one entry of the full-registry report response.
type renderedReport struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Text  string `json:"text"`
}

// handleReports — GET /v1/datasets/{name}/reports?seed=N: every registry
// artifact rendered, assembled from the per-artifact result cache. The
// registry fan-out (experiments.RunEach) keeps RunAll's contract: every
// dispatched artifact runs and the lowest-indexed failure is reported, but
// once the request deadline passes no new artifact is dispatched. Those
// already running finish into the cache, so a patient retry reuses them.
func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	name, ok := datasetName(w, r)
	if !ok {
		return
	}
	seed, ok := seedParam(w, r)
	if !ok {
		return
	}
	e, ok := s.store.Get(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "no dataset %q", name)
		return
	}
	reg := broadband.Experiments()
	results, _, err := experiments.RunEach(r.Context(), reg, func(entry broadband.ReportEntry) (artifactResult, error) {
		return s.artifact(e, entry, seed)
	})
	switch {
	case err == nil:
		out := make([]renderedReport, len(results))
		for i, res := range results {
			out[i] = renderedReport{ID: reg[i].ID, Title: res.title, Text: res.text}
		}
		writeJSON(w, http.StatusOK, out)
	case errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusGatewayTimeout, "reports: deadline exceeded after %d of %d artifacts", len(results), len(reg))
	case errors.Is(err, context.Canceled):
		// Client gone; nobody reads this.
	default:
		writeErr(w, http.StatusInternalServerError, "reports: broadband: %v", err)
	}
}

// scenarioRequest is the POST /v1/scenarios body.
type scenarioRequest struct {
	Packs []*scenario.Pack `json:"packs"`
	Seeds []uint64         `json:"seeds,omitempty"`
	World *worldScale      `json:"world,omitempty"`
}

// worldScale is the subset of synth.Config a scenario request may size.
type worldScale struct {
	Users         int `json:"users,omitempty"`
	FCCUsers      int `json:"fcc_users,omitempty"`
	Days          int `json:"days,omitempty"`
	SwitchTarget  int `json:"switch_target,omitempty"`
	MinPerCountry int `json:"min_per_country,omitempty"`
}

// Request-size ceilings: a scenario run builds (packs+1)×seeds worlds, so
// the endpoint caps the multiplicands rather than trusting callers.
const (
	maxScenarioPacks = 16
	maxScenarioSeeds = 8
	maxScenarioUsers = 20000
	maxScenarioDays  = 30
)

// defaultScenarioWorld is the baseline scale when the request names none:
// small enough that a pack evaluates in seconds, large enough that the
// registry's tier analyses keep their case-study markets.
var defaultScenarioWorld = synth.Config{
	Users: 800, FCCUsers: 200, Days: 2, SwitchTarget: 150, MinPerCountry: 10,
}

// options checks the request against the endpoint's ceilings and resolves
// the scenario run options. Every count that sizes a world is capped (a
// min_per_country applies per country, so it multiplies).
func (req *scenarioRequest) options() (scenario.Options, error) {
	if len(req.Packs) == 0 {
		return scenario.Options{}, errors.New("scenario request names no packs")
	}
	if len(req.Packs) > maxScenarioPacks || len(req.Seeds) > maxScenarioSeeds {
		return scenario.Options{}, fmt.Errorf("scenario request too large (max %d packs, %d seeds)", maxScenarioPacks, maxScenarioSeeds)
	}
	for _, p := range req.Packs {
		if err := p.Validate(); err != nil {
			return scenario.Options{}, fmt.Errorf("pack: %v", err)
		}
	}
	opts := scenario.Options{Base: defaultScenarioWorld, Seeds: req.Seeds}
	if len(opts.Seeds) == 0 {
		opts.Seeds = []uint64{1}
	}
	ws := req.World
	if ws == nil {
		return opts, nil
	}
	for _, f := range []struct {
		name  string
		v, mx int
		dst   *int
	}{
		{"users", ws.Users, maxScenarioUsers, &opts.Base.Users},
		{"fcc_users", ws.FCCUsers, maxScenarioUsers, &opts.Base.FCCUsers},
		{"days", ws.Days, maxScenarioDays, &opts.Base.Days},
		{"switch_target", ws.SwitchTarget, maxScenarioUsers, &opts.Base.SwitchTarget},
		{"min_per_country", ws.MinPerCountry, maxScenarioUsers, &opts.Base.MinPerCountry},
	} {
		if f.v > f.mx {
			return scenario.Options{}, fmt.Errorf("world too large (max %d %s)", f.mx, f.name)
		}
		if f.v > 0 {
			*f.dst = f.v
		}
	}
	return opts, nil
}

// handleScenarios — POST /v1/scenarios: run declarative counterfactual
// packs against a baseline world, bounded by the request deadline (the
// world builds run under BuildWorldCtx inside scenario.Run).
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	var req scenarioRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		failBody(w, err, "scenario request")
		return
	}
	opts, err := req.options()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	rep, err := scenario.Run(r.Context(), req.Packs, opts)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			writeErr(w, http.StatusGatewayTimeout, "scenarios: deadline exceeded")
		case errors.Is(err, context.Canceled):
			// Client gone; nobody reads this.
		case errors.Is(err, synth.ErrInvalidConfig):
			writeErr(w, http.StatusBadRequest, "scenarios: %v", err)
		default:
			writeErr(w, http.StatusInternalServerError, "scenarios: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, rep)
}
