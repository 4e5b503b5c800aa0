package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/chaos"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/golden"
	"github.com/nwca/broadband/internal/scenario"
	"github.com/nwca/broadband/internal/synth"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = quietLogger()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postUpload(t *testing.T, url, name string, body []byte, contentType string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/datasets/"+name, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestUploadQueryLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, ctype := cleanUploadBody(t)

	resp := postUpload(t, ts.URL, "panel", body, ctype)
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload status %d: %s", resp.StatusCode, b)
	}
	var created struct {
		Info
		Quarantine *dataset.QuarantineReport `json:"quarantine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	if created.Users != len(testWorld(t).Users) || created.Hash == "" {
		t.Fatalf("created = %+v", created.Info)
	}

	// Listing and metadata.
	lr, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Body.Close()
	var infos []Info
	if err := json.NewDecoder(lr.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "panel" {
		t.Fatalf("list = %+v", infos)
	}

	// The artifact registry is served in full.
	ar, err := http.Get(ts.URL + "/v1/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Body.Close()
	var arts []artifactInfo
	if err := json.NewDecoder(ar.Body).Decode(&arts); err != nil {
		t.Fatal(err)
	}
	if len(arts) != 20 {
		t.Fatalf("%d registry artifacts served, want 20", len(arts))
	}

	// Artifact query by slug, twice: byte-identical (cache hit).
	get := func() []byte {
		r, err := http.Get(ts.URL + "/v1/datasets/panel/artifacts/fig02?seed=7")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(r.Body)
			t.Fatalf("artifact status %d: %s", r.StatusCode, b)
		}
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first, second := get(), get()
	if !bytes.Equal(first, second) {
		t.Fatal("repeated identical queries returned different bytes")
	}
	if !json.Valid(first) {
		t.Fatalf("artifact response is not JSON: %.80s", first)
	}

	// Unknown artifact and dataset 404; invalid name 400.
	for path, want := range map[string]int{
		"/v1/datasets/panel/artifacts/fig99": http.StatusNotFound,
		"/v1/datasets/nope/artifacts/fig02":  http.StatusNotFound,
		"/v1/datasets/No!Pe/artifacts/fig02": http.StatusBadRequest,
	} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, r.StatusCode, want)
		}
	}

	// Delete, then the dataset is gone.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/panel", nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", dr.StatusCode)
	}
	gr, err := http.Get(ts.URL + "/v1/datasets/panel")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted dataset still served: %d", gr.StatusCode)
	}
}

// forgetfulStore loses every dataset between Put and Get, as a DELETE
// racing in behind an upload would.
type forgetfulStore struct{ *MemStore }

func (forgetfulStore) Get(string) (*Entry, bool) { return nil, false }

func TestUploadRepliesWithoutRereadingStore(t *testing.T) {
	_, ts := newTestServer(t, Config{Store: forgetfulStore{NewMemStore()}})
	body, ctype := cleanUploadBody(t)
	resp := postUpload(t, ts.URL, "panel", body, ctype)
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d: %s", resp.StatusCode, b)
	}
	var created Info
	if err := json.Unmarshal(b, &created); err != nil {
		t.Fatal(err)
	}
	if created.Name != "panel" || created.Hash == "" || created.Users != len(testWorld(t).Users) {
		t.Fatalf("created = %+v", created)
	}
}

func TestUploadGzipParts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	u, sw, p := worldTables(t)
	body, ctype := multipartUpload(t, map[string][]byte{
		"users.csv.gz": chaos.GzipBytes(u),
		"switches.csv": sw,
		"plans.csv.gz": chaos.GzipBytes(p),
	}, "users.csv.gz", "switches.csv", "plans.csv.gz")
	resp := postUpload(t, ts.URL, "gzpanel", body, ctype)
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("gz upload status %d: %s", resp.StatusCode, b)
	}
}

func TestUploadCorruptGzipRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	u, sw, p := worldTables(t)
	inj := chaos.New(chaos.Config{Seed: 3})
	bad, off := inj.CorruptGzipBytes("users.csv.gz", chaos.GzipBytes(u))
	if off < 0 {
		t.Fatal("payload too small to corrupt")
	}
	body, ctype := multipartUpload(t, map[string][]byte{
		"users.csv.gz": bad, "switches.csv": sw, "plans.csv": p,
	}, "users.csv.gz", "switches.csv", "plans.csv")
	resp := postUpload(t, ts.URL, "corrupt", body, ctype)
	if resp.StatusCode != http.StatusBadRequest {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("corrupt gzip status %d: %s", resp.StatusCode, b)
	}
	if _, ok := s.store.Get("corrupt"); ok {
		t.Fatal("corrupt upload was stored")
	}
}

func TestUploadMissingTableRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	u, _, _ := worldTables(t)
	body, ctype := multipartUpload(t, map[string][]byte{"users.csv": u}, "users.csv")
	resp := postUpload(t, ts.URL, "partial", body, ctype)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing-table status %d", resp.StatusCode)
	}
}

func TestUploadOverBudgetRejected(t *testing.T) {
	// A budget of one bad row in 10,000: the two garbage rows appended
	// below exceed it for any fixture world smaller than 20,000 users.
	s, ts := newTestServer(t, Config{Quarantine: dataset.QuarantineOptions{MaxBadFrac: 1e-4}})
	u, sw, p := worldTables(t)
	dirty := append(append([]byte{}, u...), []byte("garbage\nmore garbage\n")...)
	body, ctype := multipartUpload(t, map[string][]byte{
		"users.csv": dirty, "switches.csv": sw, "plans.csv": p,
	}, "users.csv", "switches.csv", "plans.csv")
	resp := postUpload(t, ts.URL, "dirty", body, ctype)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("over-budget status %d: %s", resp.StatusCode, b)
	}
	if _, ok := s.store.Get("dirty"); ok {
		t.Fatal("over-budget upload was stored")
	}
}

func TestUploadDisconnectStoresNothing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body, ctype := cleanUploadBody(t)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/datasets/gone",
		chaos.BrokenBody(body, len(body)/2))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		// The server may have answered 400 before the client noticed.
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("disconnect produced server error %d", resp.StatusCode)
		}
	}
	if _, ok := s.store.Get("gone"); ok {
		t.Fatal("partial upload was stored")
	}
}

func TestSlowLorisCutOffByDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: 150 * time.Millisecond})
	body, ctype := cleanUploadBody(t)
	// ~40 bytes/ms: a multi-hundred-KB body takes many seconds — far past
	// the deadline — if the server were willing to wait it out.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/datasets/loris",
		chaos.SlowBody(body, 64, 1500*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ctype)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	elapsed := time.Since(start)
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestTimeout {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("slow-loris status %d: %s", resp.StatusCode, b)
		}
	}
	if elapsed > 5*time.Second {
		t.Fatalf("server waited %v for a slow-loris body", elapsed)
	}
	if _, ok := s.store.Get("loris"); ok {
		t.Fatal("slow-loris upload was stored")
	}
}

func TestAdmissionControlSheds(t *testing.T) {
	s := New(Config{MaxInFlight: 1, Log: quietLogger()})
	release := make(chan struct{})
	entered := make(chan struct{})
	var enteredOnce sync.Once
	h := s.withAdmission(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enteredOnce.Do(func() { close(entered) })
		<-release
	}))

	var wg sync.WaitGroup
	wg.Add(1)
	first := httptest.NewRecorder()
	go func() {
		defer wg.Done()
		h.ServeHTTP(first, httptest.NewRequest(http.MethodGet, "/v1/artifacts", nil))
	}()
	<-entered

	// The slot is held: the next request is shed immediately.
	second := httptest.NewRecorder()
	h.ServeHTTP(second, httptest.NewRequest(http.MethodGet, "/v1/artifacts", nil))
	if second.Code != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429", second.Code)
	}
	if second.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.shed.Load(); got != 1 {
		t.Fatalf("shed counter %d, want 1", got)
	}

	close(release)
	wg.Wait()
	// Slot free again: served.
	third := httptest.NewRecorder()
	h.ServeHTTP(third, httptest.NewRequest(http.MethodGet, "/v1/artifacts", nil))
	if third.Code == http.StatusTooManyRequests {
		t.Fatal("request shed with a free slot")
	}
}

func TestRecoverTurnsPanicInto500(t *testing.T) {
	s := New(Config{Log: quietLogger()})
	h := s.withRecover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("experiment exploded")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/artifacts", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic produced status %d, want 500", rec.Code)
	}
	// The process (and the handler chain) is still alive.
	rec2 := httptest.NewRecorder()
	s.withRecover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})).ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/v1/artifacts", nil))
	if rec2.Code != http.StatusNoContent {
		t.Fatal("handler chain dead after panic")
	}
}

func TestDrainShedsAndCompletes(t *testing.T) {
	s := New(Config{Log: quietLogger()})
	release := make(chan struct{})
	entered := make(chan struct{})
	h := s.withTrack(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	}))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/artifacts", nil))
	}()
	<-entered

	// Drain cannot finish while the request is in flight.
	short, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(short); err == nil {
		t.Fatal("drain reported complete with a request in flight")
	}

	// New work is shed while draining; readiness is down; liveness is up.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/artifacts", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain got %d, want 503", rec.Code)
	}
	ready := httptest.NewRecorder()
	s.handleReadyz(ready, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if ready.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", ready.Code)
	}
	live := httptest.NewRecorder()
	s.handleHealthz(live, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if live.Code != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200", live.Code)
	}

	// Once the in-flight request finishes, drain completes within deadline.
	close(release)
	wg.Wait()
	done, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if err := s.Drain(done); err != nil {
		t.Fatalf("drain after completion: %v", err)
	}
}

// reportsReference renders /reports from RunAll, independently of the
// server's cache and its response types.
func reportsReference(t *testing.T, d *dataset.Dataset, seed uint64) []byte {
	t.Helper()
	reports, err := broadband.RunAll(d, seed)
	if err != nil {
		t.Fatalf("RunAll seed %d: %v", seed, err)
	}
	type rendered struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Text  string `json:"text"`
	}
	out := make([]rendered, len(reports))
	for i, rep := range reports {
		out[i] = rendered{rep.ID(), rep.Title(), rep.Render()}
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// getBody GETs path and returns the status and body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	b, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	return r.StatusCode, b
}

// getOK GETs path and fails the test unless it answers 200.
func getOK(t *testing.T, url string) []byte {
	t.Helper()
	code, b := getBody(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, code, b)
	}
	return b
}

func TestReportsAssembledFromArtifactCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry fan-out")
	}
	s, ts := newTestServer(t, Config{})
	d := testWorld(t)
	if _, err := s.store.Put("panel", d, nil); err != nil {
		t.Fatal(err)
	}
	reg := broadband.Experiments()
	artifactURL := func(id string, seed int) string {
		return fmt.Sprintf("%s/v1/datasets/panel/artifacts/%s?seed=%d", ts.URL, golden.Slug(id), seed)
	}
	wantComputes := func(step string, want int64) {
		t.Helper()
		if got, _, _ := s.cache.counters(); got != want {
			t.Fatalf("%s: %d computes in total, want %d", step, got, want)
		}
	}

	for _, e := range reg {
		getOK(t, artifactURL(e.ID, 1))
	}
	wantComputes("warm seed 1", 20)
	if got := getOK(t, ts.URL+"/v1/datasets/panel/reports?seed=1"); !bytes.Equal(got, reportsReference(t, d, 1)) {
		t.Fatal("/reports?seed=1 differs from RunAll rendered in process")
	}
	wantComputes("/reports on a warm seed", 20)

	if got := getOK(t, ts.URL+"/v1/datasets/panel/reports?seed=3"); !bytes.Equal(got, reportsReference(t, d, 3)) {
		t.Fatal("/reports?seed=3 differs from RunAll rendered in process")
	}
	wantComputes("/reports on a cold seed", 40)
	for _, e := range reg {
		rep, err := broadband.Run(e.ID, d, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := golden.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if got := getOK(t, artifactURL(e.ID, 3)); !bytes.Equal(got, want) {
			t.Fatalf("%s at seed 3 differs from golden.Marshal(broadband.Run(...))", e.ID)
		}
	}
	wantComputes("artifact GETs after /reports", 40)
}

// A /reports cut by its deadline answers 504 with the completed prefix,
// yet every artifact it dispatched finishes into the cache: a client that
// retries with patience is served from them, and no artifact is computed
// twice.
func TestReportsDeadlineKeepsDispatchedWork(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry fan-out")
	}
	// A cold /reports on the test world takes ≈17 ms on two cores.
	s, ts := newTestServer(t, Config{RequestTimeout: time.Millisecond})
	d := testWorld(t)
	if _, err := s.store.Put("panel", d, nil); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/datasets/panel/reports?seed=5"
	cut := regexp.MustCompile(`^\{"error":"reports: deadline exceeded after ([0-9]+) of 20 artifacts"\}\n$`)

	code, body := getBody(t, url)
	if code != http.StatusGatewayTimeout || !cut.Match(body) {
		t.Fatalf("cold /reports under a 1ms deadline = %d %s, want 504 after k of 20", code, body)
	}
	s.cache.mu.Lock()
	for k, e := range s.cache.m {
		if e.charged == 0 {
			t.Errorf("entry %v left in the cache without a result", k)
		}
	}
	s.cache.mu.Unlock()

	for tries := 1; code != http.StatusOK; tries++ {
		if tries == 1000 {
			t.Fatalf("no /reports succeeded in %d tries; last %d %s", tries, code, body)
		}
		if code, body = getBody(t, url); code != http.StatusOK && !cut.Match(body) {
			t.Fatalf("retry = %d %s", code, body)
		}
	}
	if !bytes.Equal(body, reportsReference(t, d, 5)) {
		t.Fatal("/reports after retries differs from RunAll rendered in process")
	}
	if computes, _, _ := s.cache.counters(); computes != 20 || len(s.cache.m) != 20 {
		t.Fatalf("%d computes, %d entries across the retries; want 20 and 20", computes, len(s.cache.m))
	}
}

// On a world too small for Table 7, /reports answers RunAll's own error:
// the lowest-indexed failure, and no failed artifact stays cached.
func TestReportsFailureMatchesRunAll(t *testing.T) {
	w, err := synth.Build(synth.Config{Seed: 20140705, Users: 200, FCCUsers: 50, Days: 1, SwitchTarget: 40, MinPerCountry: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := broadband.RunAll(&w.Data, 1)
	if runErr == nil {
		t.Fatal("RunAll succeeded on a 200-user world; the test needs a failing artifact")
	}
	s, ts := newTestServer(t, Config{})
	if _, err := s.store.Put("small", &w.Data, nil); err != nil {
		t.Fatal(err)
	}
	code, body := getBody(t, ts.URL+"/v1/datasets/small/reports?seed=1")
	want, _ := json.Marshal(map[string]string{"error": "reports: " + runErr.Error()})
	if code != http.StatusInternalServerError || !bytes.Equal(body, append(want, '\n')) {
		t.Fatalf("/reports = %d %s, want 500 %s", code, body, want)
	}
	computes, _, _ := s.cache.counters()
	if n := len(s.cache.m); computes != 20 || n >= 20 {
		t.Fatalf("%d computes, %d entries cached; want 20 computes and the failures dropped", computes, n)
	}
}

func TestScenarioEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds counterfactual worlds")
	}
	_, ts := newTestServer(t, Config{RequestTimeout: 2 * time.Minute})
	packs, err := scenario.LoadDir("../../testdata/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	req := scenarioRequest{
		Packs: packs[:1],
		Seeds: []uint64{1},
		World: &worldScale{Users: 1000, FCCUsers: 250, Days: 2, SwitchTarget: 200, MinPerCountry: 10},
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("scenario status %d: %s", resp.StatusCode, body)
	}
	var rep scenario.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Packs) != 1 || len(rep.Packs[0].Outcomes) == 0 {
		t.Fatalf("scenario report = %+v", rep)
	}

	// Malformed requests are rejected up front.
	for body, want := range map[string]int{
		`{"packs":[]}`:      http.StatusBadRequest,
		`{"unknown":true}`:  http.StatusBadRequest,
		`{"packs":[{}]}`:    http.StatusBadRequest,
		`not json at all!!`: http.StatusBadRequest,
	} {
		r2, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != want {
			t.Errorf("POST %q = %d, want %d", body, r2.StatusCode, want)
		}
	}
}

// TestScenarioRequestCaps pins the /v1/scenarios ceilings: every count
// that sizes a world is refused with 400 past its cap, before any world
// is built. A body naming workers is refused as an unknown field: the
// server runs at GOMAXPROCS and takes no worker count from clients.
func TestScenarioRequestCaps(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	packs, err := scenario.LoadDir("../../testdata/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	const over = maxScenarioUsers + 1
	for _, tc := range []struct {
		name  string
		world *worldScale
		extra string // raw JSON field spliced into the body
		ok    bool   // accepted by options
	}{
		{name: "users", world: &worldScale{Users: over}},
		{name: "fcc_users", world: &worldScale{FCCUsers: over}},
		{name: "days", world: &worldScale{Days: maxScenarioDays + 1}},
		{name: "switch_target", world: &worldScale{SwitchTarget: over}},
		{name: "min_per_country", world: &worldScale{MinPerCountry: over}},
		{name: "workers", extra: `"workers":1,`},
		{name: "at caps", world: &worldScale{
			Users: maxScenarioUsers, FCCUsers: maxScenarioUsers, Days: maxScenarioDays,
			SwitchTarget: maxScenarioUsers, MinPerCountry: maxScenarioUsers,
		}, ok: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := scenarioRequest{Packs: packs[:1], World: tc.world}
			_, err := req.options()
			if tc.ok {
				if err != nil {
					t.Fatalf("options: %v", err)
				}
				return
			}
			if err == nil && tc.extra == "" {
				t.Fatalf("options accepted an over-cap %s", tc.name)
			}
			b, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			b = append([]byte("{"+tc.extra), b[1:]...)
			resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("POST with over-cap %s = %d, want 400", tc.name, resp.StatusCode)
			}
			if !strings.Contains(string(body), tc.name) {
				t.Fatalf("400 body %s does not name %s", body, tc.name)
			}
		})
	}
}
