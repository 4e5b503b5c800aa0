package serve

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// resultCache memoizes one rendered artifact per (dataset content hash,
// artifact ID, seed). Because the key is the content hash — not the
// dataset name — concurrent identical queries are byte-identical by
// construction: whichever request wins the per-entry once computes the
// result, and every other request serves the exact same bytes. A
// re-upload that changes the data changes the hash, so stale results are
// unreachable rather than invalidated.
type resultCache struct {
	mu sync.Mutex
	m  map[resultKey]*resultEntry

	// Counters, guarded by mu: computations run, entries evicted to stay
	// within maxCacheBytes, and bytes held by completed entries.
	computes, evictions, bytes int64

	// logf receives the stack of a computation that panicked.
	logf func(format string, args ...any)
}

type resultKey struct {
	hash     string
	artifact string
	seed     uint64
}

// artifactResult is everything a response needs from one artifact run:
// the canonical golden.Marshal bytes artifact GETs serve, and the
// report's own title and rendered text /reports assembles.
type artifactResult struct {
	data  []byte
	title string
	text  string
}

// size is what an entry is charged against maxCacheBytes.
func (r artifactResult) size() int64 { return int64(len(r.data) + len(r.title) + len(r.text)) }

type resultEntry struct {
	once sync.Once
	res  artifactResult
	err  error
	// charged is the entry's resident size once it completed and was
	// retained; zero while it is in flight. Guarded by the cache's mu.
	charged int64
}

// maxCacheBytes bounds the bytes the cache retains; seeds are
// caller-chosen, so the key space is unbounded. Eviction is arbitrary
// (map order) — the cache is a dedup layer, not an LRU; recomputing an
// evicted entry is just work. The query workload's whole working set
// (≈800 entries of ≈7 KB) fits with room to spare.
const maxCacheBytes = 64 << 20

func newResultCache(logf func(format string, args ...any)) *resultCache {
	return &resultCache{m: make(map[resultKey]*resultEntry), logf: logf}
}

// get returns the cached result for k, computing it at most once per
// entry however many requests race. compute takes no request context, so
// a leader that gives up cannot fail its joiners, and a computation that
// was started always finishes into the cache. Failed computations are
// not cached: the entry is removed so the next request retries. A
// computation that panics counts as failed.
func (c *resultCache) get(k resultKey, compute func() (artifactResult, error)) (artifactResult, error) {
	c.mu.Lock()
	e, ok := c.m[k]
	if !ok {
		e = &resultEntry{}
		c.m[k] = e
	}
	c.mu.Unlock()

	e.once.Do(func() {
		e.res, e.err = c.run(k, compute)
		c.mu.Lock()
		defer c.mu.Unlock()
		c.computes++
		switch size := e.res.size(); {
		case e.err != nil:
			delete(c.m, k)
		case size > maxCacheBytes:
			// Served to the requests already holding e, never retained.
			delete(c.m, k)
			c.evictions++
		default:
			e.charged = size
			c.bytes += size
			c.evictLocked(e)
		}
	})
	return e.res, e.err
}

// run calls compute and returns a panic as an error, logging its stack the
// way the server's recover middleware does. /reports computes artifacts on
// worker goroutines, where no middleware could catch the panic.
func (c *resultCache) run(k resultKey, compute func() (artifactResult, error)) (res artifactResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			c.logf("panic computing %s at seed %d: %v\n%s", k.artifact, k.seed, p, debug.Stack())
			res, err = artifactResult{}, fmt.Errorf("panic: %v", p)
		}
	}()
	return compute()
}

// evictLocked drops completed entries other than keep until the resident
// bytes fit the budget. In-flight entries hold no charged bytes and are
// never dropped, so their joiners still find them. c.mu must be held.
func (c *resultCache) evictLocked(keep *resultEntry) {
	for k, e := range c.m {
		if c.bytes <= maxCacheBytes {
			return
		}
		if e == keep || e.charged == 0 {
			continue
		}
		delete(c.m, k)
		c.bytes -= e.charged
		c.evictions++
	}
}
