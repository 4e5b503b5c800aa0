package serve

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// counters reads the cache's counters under its lock.
func (c *resultCache) counters() (computes, evictions, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.computes, c.evictions, c.bytes
}

// resident sums the sizes of the completed entries the cache holds.
func (c *resultCache) resident(t *testing.T) int64 {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for k, e := range c.m {
		if e.charged != e.res.size() {
			t.Errorf("entry %v charged %d bytes, holds %d", k, e.charged, e.res.size())
		}
		n += e.res.size()
	}
	return n
}

func TestResultCacheBoundedByBytes(t *testing.T) {
	c := newResultCache(t.Logf)
	// Every entry shares one backing array: the cache charges lengths, so
	// 200 MiB of entries cost the test 1 MiB.
	big := make([]byte, 1<<20)
	const n = 200
	for i := 0; i < n; i++ {
		res, err := c.get(resultKey{hash: "h", artifact: "Fig. 1", seed: uint64(i)}, func() (artifactResult, error) {
			return artifactResult{data: big, title: "t", text: "x"}, nil
		})
		if err != nil || len(res.data) != len(big) {
			t.Fatalf("get %d: %d bytes, %v", i, len(res.data), err)
		}
	}
	got := c.resident(t)
	if got > maxCacheBytes {
		t.Fatalf("cache holds %d bytes, budget %d", got, maxCacheBytes)
	}
	computes, evictions, bytes := c.counters()
	if bytes != got || computes != n || evictions != n-int64(len(c.m)) {
		t.Fatalf("counters computes=%d evictions=%d bytes=%d; want %d, %d, %d", computes, evictions, bytes, n, n-len(c.m), got)
	}

	// An entry larger than the whole budget is served, not retained.
	huge := make([]byte, maxCacheBytes+1)
	k := resultKey{hash: "h", artifact: "Fig. 2", seed: 1}
	res, err := c.get(k, func() (artifactResult, error) { return artifactResult{data: huge}, nil })
	if err != nil || len(res.data) != len(huge) {
		t.Fatalf("oversize get: %d bytes, %v", len(res.data), err)
	}
	if _, ok := c.m[k]; ok {
		t.Fatal("oversize entry retained")
	}
	if _, _, after := c.counters(); after != bytes {
		t.Fatalf("oversize entry charged: %d → %d bytes", bytes, after)
	}
}

// The query workload's working set — every artifact at a few dozen seeds,
// ≈7 KB each — is far inside the budget, so nothing is ever evicted, and
// racing requests compute each entry once.
func TestResultCacheKeepsWorkingSet(t *testing.T) {
	c := newResultCache(t.Logf)
	blob := make([]byte, 7<<10)
	const keys = 800
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := resultKey{hash: "h", artifact: fmt.Sprint(i % 20), seed: uint64(i / 20)}
				if _, err := c.get(k, func() (artifactResult, error) { return artifactResult{data: blob}, nil }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	computes, evictions, bytes := c.counters()
	if computes != keys || evictions != 0 || bytes != keys*int64(len(blob)) || len(c.m) != keys {
		t.Fatalf("computes=%d evictions=%d bytes=%d entries=%d; want %d, 0, %d, %d", computes, evictions, bytes, len(c.m), keys, keys*len(blob), keys)
	}
}

// A compute that panics must not poison its entry: the panic comes back as
// an error, nothing is charged, and the next get recomputes and serves the
// new result instead of an empty one.
func TestResultCachePanicNotCached(t *testing.T) {
	c := newResultCache(t.Logf)
	k := resultKey{hash: "h", artifact: "Fig. 1", seed: 1}
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("get let the panic escape: %v", p)
			}
		}()
		if _, err := c.get(k, func() (artifactResult, error) { panic("boom") }); err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("panicking compute: err = %v, want the panic as an error", err)
		}
	}()
	if _, _, bytes := c.counters(); bytes != 0 || len(c.m) != 0 {
		t.Errorf("after a panic the cache holds %d entries, %d bytes; want none", len(c.m), bytes)
	}
	calls := 0
	res, err := c.get(k, func() (artifactResult, error) {
		calls++
		return artifactResult{data: []byte("ok")}, nil
	})
	if err != nil || string(res.data) != "ok" || calls != 1 {
		t.Fatalf("retry after panic: data=%q err=%v compute calls=%d; want \"ok\", nil, 1", res.data, err, calls)
	}
	if _, _, bytes := c.counters(); bytes != res.size() {
		t.Fatalf("retry charged %d bytes, want %d", bytes, res.size())
	}
}
