package main

import (
	"context"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Arrival is one scheduled request of an open-loop run.
type Arrival struct {
	Due   time.Duration // offset from the run's start
	Class int           // index into the mix
	Seq   int           // position in the schedule
	Nth   int           // position among the schedule's requests of its class
}

// MixCounts returns each class's count in the smallest block of arrivals
// (at most 1000) in which every weight of the mix is a whole count.
func MixCounts(mix []float64) []int {
	var total float64
	for _, w := range mix {
		total += w
	}
	counts := make([]int, len(mix))
	for n := 1; n <= 1000; n++ {
		whole := true
		for c, w := range mix {
			x := w / total * float64(n)
			counts[c] = int(math.Round(x))
			whole = whole && math.Abs(x-float64(counts[c])) < 1e-9
		}
		if whole {
			break
		}
	}
	return counts
}

// Schedule builds a Poisson arrival schedule of n requests at rate
// requests per second. Classes follow the mix weights exactly within every
// block of MixCounts(mix) arrivals and are spread evenly through it, each
// class's k-th slot placed at a seeded jitter around k/count of the block.
// When a rare class costs a hundred times a common one, a merely random
// mix moves the tail and the throughput of a short run by how many of the
// rare requests it happened to draw and how closely they bunched. The
// schedule is a pure function of its arguments: the same seed gives the
// same schedule.
func Schedule(seed, stream uint64, rate float64, n int, mix []float64) []Arrival {
	rng := rand.New(rand.NewPCG(seed, stream))
	counts := MixCounts(mix)
	type slot struct {
		pos   float64
		class int
	}
	out := make([]Arrival, 0, n)
	var slots []slot
	nth := make([]int, len(mix))
	t := 0.0
	for len(out) < n {
		if len(slots) == 0 {
			for c, k := range counts {
				for i := 0; i < k; i++ {
					slots = append(slots, slot{(float64(i) + rng.Float64()) / float64(k), c})
				}
			}
			sort.Slice(slots, func(i, j int) bool { return slots[i].pos < slots[j].pos })
		}
		t += rng.ExpFloat64() / rate
		c := slots[0].class
		slots = slots[1:]
		out = append(out, Arrival{Due: time.Duration(t * float64(time.Second)), Class: c, Seq: len(out), Nth: nth[c]})
		nth[c]++
	}
	return out
}

// Outcome is what a request's sender reports back.
type Outcome struct {
	Status int   // HTTP status, 0 when the request never got a response
	Err    error // transport failure or a failed output check
	// Want is the status the workload expects when it is not a 2xx: an
	// upload over the quarantine budget must be refused with 422.
	Want int
	Rows int // accepted user rows, for uploads
}

// Failed classifies an outcome for the error count. Transport errors,
// failed checks and unexpected statuses count; a 429 is a refusal and
// always counts; an expected 422 does not.
func (o Outcome) Failed() bool {
	switch {
	case o.Err != nil, o.Status == 0, o.Status == http.StatusTooManyRequests:
		return true
	case o.Want != 0:
		return o.Status != o.Want
	default:
		return o.Status < 200 || o.Status > 299
	}
}

// Result is one completed request of an open-loop run.
type Result struct {
	Arrival
	Sent, Done time.Duration // offsets from the run's start
	// Late is how late an idle sender started a request it waited for:
	// the generator's own timing error, not time queued behind a busy
	// sender.
	Late time.Duration
	Outcome
}

// Latency is measured from the due time, so time spent waiting for a free
// connection behind a stalled request counts against the system.
func (r Result) Latency() time.Duration { return r.Done - r.Due }

// OpenLoop sends the schedule over conns sender goroutines and returns
// the results in schedule order. Each sender takes the next unsent
// arrival; if it is not yet due the sender waits for its due time,
// otherwise it was queued behind busy senders and goes at once. Requests
// still unsent when cutoff expires are dropped (Sent < 0), so an
// overloaded step cannot spill into the next one.
func OpenLoop(ctx context.Context, sched []Arrival, conns int, cutoff time.Duration, send func(context.Context, Arrival) Outcome) []Result {
	res := make([]Result, len(sched))
	var mu sync.Mutex
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(sched) {
					return
				}
				a := sched[i]
				res[i].Arrival = a
				if wait := a.Due - time.Since(start); wait > 0 {
					if !sleepUntil(ctx, start.Add(a.Due)) {
						res[i].Sent = -1
						continue
					}
					res[i].Late = time.Since(start) - a.Due
				}
				sent := time.Since(start)
				if sent > cutoff || ctx.Err() != nil {
					res[i].Sent = -1
					continue
				}
				res[i].Sent = sent
				res[i].Outcome = send(ctx, a)
				res[i].Done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return res
}

// spinWindow is how long before a due time a waiting sender stops
// sleeping and yields in a loop instead: a timer wakes a goroutine up to a
// millisecond late, which on a one-millisecond request would be most of
// the latency measured.
const spinWindow = 2 * time.Millisecond

// sleepUntil waits until t, reporting false if ctx ended first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	if d := time.Until(t) - spinWindow; d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return false
		}
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
	return ctx.Err() == nil
}

// ClosedLoop sends the schedule's requests back to back, ignoring due
// times, over conns senders until d has passed, and returns the outcomes
// of the requests sent and the elapsed time.
func ClosedLoop(ctx context.Context, sched []Arrival, conns int, d time.Duration, send func(context.Context, Arrival) Outcome) ([]Outcome, time.Duration) {
	var mu sync.Mutex
	next := 0
	out := make([]Outcome, len(sched))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(sched) {
					return
				}
				out[i] = send(ctx, sched[i])
			}
		}()
	}
	wg.Wait()
	return out[:min(next, len(sched))], time.Since(start)
}

// Quantile is the type-7 (linear interpolation) sample quantile of xs,
// which it sorts in place. It returns NaN for an empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	h := q * float64(len(xs)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
}

// Median is Quantile(xs, 0.5) on a copy.
func Median(xs []float64) float64 {
	return Quantile(append([]float64(nil), xs...), 0.5)
}

// TailOK reports whether the q-th percentile of n samples may be named:
// at least 10 samples must lie beyond it.
func TailOK(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9
}

// TailQuantiles are the percentiles a tail metric may fall back through,
// highest first.
var TailQuantiles = []float64{0.99, 0.95, 0.9, 0.75}

// Tail returns the highest percentile in TailQuantiles that n samples
// support, and its value; ok is false when even the lowest is unsupported.
func Tail(xs []float64) (q, v float64, ok bool) {
	for _, q := range TailQuantiles {
		if TailOK(len(xs), q) {
			return q, Quantile(append([]float64(nil), xs...), q), true
		}
	}
	return 0, math.NaN(), false
}
