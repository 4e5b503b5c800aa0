// Package serve is the broadband-analytics server: panel uploads pass
// through the quarantine trust boundary (dataset.LoadDirRobust), stored
// datasets answer artifact queries for every registry entry, and ad-hoc
// scenario runs build counterfactual worlds — all behind a resilience
// stack of per-request deadlines, panic recovery, admission control, and
// graceful drain. cmd/bbserve is the thin binary around it; the chaos
// suite (internal/chaos's HTTP fault layer) storms it in the soak tests.
package serve

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"regexp"
	"sync/atomic"
	"time"

	"github.com/nwca/broadband/internal/dataset"
)

// Config parameterizes a Server. The zero value of every field selects a
// sane default; Store is the only one commonly set (nil = in-memory).
type Config struct {
	// Store is the dataset backend (nil = NewMemStore()).
	Store Store
	// MaxInFlight bounds concurrently-served requests; excess requests
	// are shed with 429 (0 = DefaultMaxInFlight).
	MaxInFlight int
	// RequestTimeout deadlines each request's context and body reads
	// (0 = DefaultRequestTimeout).
	RequestTimeout time.Duration
	// MaxUploadBytes caps an upload request body (0 = DefaultMaxUploadBytes).
	MaxUploadBytes int64
	// Quarantine is the error budget uploads are admitted under.
	Quarantine dataset.QuarantineOptions
	// Log receives server-side diagnostics (nil = log.Default()).
	Log *log.Logger
}

// Defaults for the zero Config.
const (
	DefaultMaxInFlight    = 16
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxUploadBytes = 256 << 20
)

// Server is the handler bundle plus the shared state behind it.
type Server struct {
	cfg   Config
	store Store
	cache *resultCache
	sem   chan struct{}

	inflight atomic.Int64
	draining atomic.Bool
	shed     atomic.Int64 // requests rejected by admission control

	handler http.Handler
	logf    func(format string, args ...any)
}

// New builds a Server from cfg, applying defaults for zero fields.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = DefaultMaxUploadBytes
	}
	logger := cfg.Log
	if logger == nil {
		logger = log.Default()
	}
	s := &Server{
		cfg:   cfg,
		store: cfg.Store,
		cache: newResultCache(logger.Printf),
		sem:   make(chan struct{}, cfg.MaxInFlight),
		logf:  logger.Printf,
	}
	s.handler = s.buildHandler()
	return s
}

// Handler returns the fully-wrapped HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// buildHandler wires the routes. Probe endpoints sit outside the
// drain/admission/timeout layers — a saturated or draining server must
// still answer them — but inside recover.
func (s *Server) buildHandler() http.Handler {
	api := http.NewServeMux()
	api.HandleFunc("GET /v1/artifacts", s.handleArtifactList)
	api.HandleFunc("GET /v1/datasets", s.handleDatasetList)
	api.HandleFunc("POST /v1/datasets/{name}", s.handleUpload)
	api.HandleFunc("GET /v1/datasets/{name}", s.handleDatasetGet)
	api.HandleFunc("DELETE /v1/datasets/{name}", s.handleDatasetDelete)
	api.HandleFunc("GET /v1/datasets/{name}/artifacts/{slug}", s.handleArtifact)
	api.HandleFunc("GET /v1/datasets/{name}/reports", s.handleReports)
	api.HandleFunc("POST /v1/scenarios", s.handleScenarios)

	wrapped := s.withTrack(s.withAdmission(s.withTimeout(api)))

	root := http.NewServeMux()
	root.HandleFunc("GET /healthz", s.handleHealthz)
	root.HandleFunc("GET /readyz", s.handleReadyz)
	root.Handle("/v1/", wrapped)
	return s.withRecover(root)
}

// handleHealthz is liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"ok":true,"inflight":%d,"shed":%d}`+"\n", s.inflight.Load(), s.shed.Load())
}

// handleReadyz is readiness: NotReady once draining, so a load balancer
// stops routing here while in-flight work finishes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"ready":false,"draining":true}`)
		return
	}
	fmt.Fprintln(w, `{"ready":true}`)
}

// Drain begins graceful shutdown: new API requests are shed with 503
// (probes keep answering), and Drain blocks until every in-flight request
// has finished or ctx expires — callers bound it with the drain deadline.
// It composes with http.Server.Shutdown, which drains at the connection
// level; Drain is the request-level half that also flips readiness.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain: %d requests still in flight: %w", s.inflight.Load(), ctx.Err())
		case <-tick.C:
		}
	}
}

// nameRE constrains dataset names: lowercase slug, no separators — names
// become DiskStore path components, so this is also path-traversal
// protection, not just hygiene.
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9-]{0,62}$`)
