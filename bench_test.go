// Benchmark harness: the canonical benchmark registry (internal/bench),
// the same specs bbbench records into BENCH_<n>.json, one sub-benchmark
// per spec. Benches outside the registry (ablations that report a custom
// metric, extra sizes) live beside it in internal/bench.
//
//	go test -bench=. -benchmem
package broadband_test

import (
	"testing"

	"github.com/nwca/broadband/internal/bench"
)

func BenchmarkSpecs(b *testing.B) {
	for _, s := range bench.Specs() {
		b.Run(s.Name, s.Run)
	}
}
