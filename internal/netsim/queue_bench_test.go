package netsim

import (
	"testing"

	"github.com/nwca/broadband/internal/randx"
)

// Event-queue benchmarks: the classic hold model (steady-state pop-one/
// push-one at a queue size typical of a saturated TCP simulation), run
// against both the production calendar queue and the retained reference
// heap so the replacement's speedup is measured directly. allocs/op is the
// headline difference: heap.Push boxes every event into an interface,
// costing one allocation per scheduled event; the calendar queue's buckets
// amortize to zero.

const holdQueueSize = 1024

// holdTimes pre-generates the random increments so the benchmark loop
// measures only queue work.
func holdTimes(n int) []float64 {
	rng := randx.New(42)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * 0.01
	}
	return out
}

func BenchmarkEventQueueCalendarHold(b *testing.B) {
	incs := holdTimes(4096)
	var q calendarQueue
	var id int64
	now := 0.0
	for i := 0; i < holdQueueSize; i++ {
		id++
		q.enqueue(event{at: incs[i%len(incs)] * 100, id: id})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _ := q.pop()
		now = e.at
		id++
		q.enqueue(event{at: now + incs[i%len(incs)], id: id})
	}
}

func BenchmarkEventQueueHeapHold(b *testing.B) {
	incs := holdTimes(4096)
	var q eventHeap
	var id int64
	now := 0.0
	for i := 0; i < holdQueueSize; i++ {
		id++
		q.pushEvent(event{at: incs[i%len(incs)] * 100, id: id})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.popEvent()
		now = e.at
		id++
		q.pushEvent(event{at: now + incs[i%len(incs)], id: id})
	}
}
