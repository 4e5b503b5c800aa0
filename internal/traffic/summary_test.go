package traffic

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

// p95Sorted is the sort-based type-7 95th percentile p95 must match.
func p95Sorted(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := 0.95 * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := h - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// decodeSamples turns fuzz bytes into a sample slice. Narrow mode maps
// each byte to one of 16 values (mostly 0) to force heavy ties; wide
// mode reads 8-byte floats, dropping NaN (rates are never NaN) and
// folding -0 into 0 (rates are never -0, and the sort's choice between
// equal zeros is not specified).
func decodeSamples(data []byte, wide bool) []float64 {
	var xs []float64
	if !wide {
		for _, b := range data {
			v := float64(b >> 4)
			if b&1 == 0 {
				v = 0
			}
			xs = append(xs, v)
		}
		return xs
	}
	for len(data) >= 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		if math.IsNaN(v) {
			continue
		}
		if v == 0 {
			v = 0
		}
		xs = append(xs, v)
	}
	return xs
}

func floatBytes(xs ...float64) []byte {
	out := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

// splitZeros returns the samples other than exact zeros, and how many
// zeros there were, as Summarize hands them to p95.
func splitZeros(xs []float64) ([]float64, int) {
	var busy []float64
	for _, x := range xs {
		if x != 0 {
			busy = append(busy, x)
		}
	}
	return busy, len(xs) - len(busy)
}

// FuzzP95 holds the selection-based p95 to the sort-based reference, bit
// for bit: on the samples as they are, and, when none is negative, with
// the zeros counted rather than passed.
func FuzzP95(f *testing.F) {
	f.Add(make([]byte, 64), false)                        // all zero
	f.Add([]byte{0x31, 0, 0, 0, 0, 0, 0, 0, 0, 0}, false) // mostly zero
	f.Add([]byte{0x51}, false)                            // length 1
	f.Add([]byte{0x51, 0x31}, false)                      // length 2
	f.Add([]byte{0xf1, 0xd1, 0xb1, 0x91, 0x71, 0x51, 0x31, 0x11}, false)
	f.Add(floatBytes(7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7), true)
	f.Add(floatBytes(9, 8, 7, 6, 5, 4, 3, 2, 1, 0, -1, -2, -3, -4, -5, -6, -7, -8, -9, -10, -11, -12), true)
	f.Add(floatBytes(1e300, math.Inf(1), -1e-300, math.Inf(-1), 0.5), true)
	f.Fuzz(func(t *testing.T, data []byte, wide bool) {
		xs := decodeSamples(data, wide)
		if len(xs) == 0 {
			return
		}
		want := p95Sorted(xs)
		same := func(got float64) bool {
			return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
		}
		if got := p95(append([]float64(nil), xs...), 0); !same(got) {
			t.Fatalf("p95(%v) = %v, sorted reference gives %v", xs, got, want)
		}
		for _, x := range xs {
			if x < 0 {
				return
			}
		}
		busy, zeros := splitZeros(xs)
		if got := p95(busy, zeros); !same(got) {
			t.Fatalf("p95 of %v with the zeros counted = %v, sorted reference gives %v", xs, got, want)
		}
	})
}

// TestP95CountedZeros holds p95 with counted zeros to the sorted reference
// where the interpolation ranks meet the zeros: every sample zero, one
// busy sample, ⌊h⌋ on the last zero (so ⌊h⌋+1 is the smallest busy
// sample), and no zeros at all.
func TestP95CountedZeros(t *testing.T) {
	// 22 samples: h = 19.95, so ⌊h⌋ = 19 is the last of 20 zeros and
	// ⌊h⌋+1 the smaller of the two busy ones.
	lastZero := append(make([]float64, 20), 7, 5)
	for name, xs := range map[string][]float64{
		"all zeros":    make([]float64, 40),
		"one busy":     append(make([]float64, 39), 3.5),
		"one sample":   {0},
		"last zero":    lastZero,
		"no zeros":     {4, 1, 9, 2, 8, 3, 7, 5, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22},
		"just below h": append(make([]float64, 37), 2, 9, 4),
	} {
		want := p95Sorted(xs)
		busy, zeros := splitZeros(xs)
		if got := p95(busy, zeros); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: p95 = %v, sorted reference gives %v", name, got, want)
		}
	}
}

// TestP95LinearOnTies guards the tie handling of the selection: a long
// all-equal slice must not degrade it to quadratic time (this would take
// minutes if it did).
func TestP95LinearOnTies(t *testing.T) {
	xs := make([]float64, 1<<20)
	if got := p95(xs, 0); got != 0 {
		t.Fatalf("p95 of zeros = %v", got)
	}
	for i := range xs {
		xs[i] = float64(i % 3)
	}
	if got, want := p95(append([]float64(nil), xs...), 0), p95Sorted(xs); got != want {
		t.Fatalf("p95 = %v, want %v", got, want)
	}
}

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// observesRef is the per-sample hour rule the mask runs must reproduce:
// the Dasu client observes the 30-second intervals that start at 12:00 or
// later, the gateway every interval.
func observesRef(mask SampleMask, i int) bool {
	return mask != DasuMask || math.Mod(float64(i)*30/3600, 24) >= 12
}

// TestMaskRunsMatchHourRule holds each mask's observed runs to the hour
// rule on every interval of a 400-day grid, and of every grid from one
// interval to two days and one, which covers a partial last day and a
// series that ends before noon. The runs must also come in ascending,
// disjoint order: Summarize sums the samples in the order it visits them.
func TestMaskRunsMatchHourRule(t *testing.T) {
	seen := make([]bool, 400*intervalsPerDay)
	check := func(name string, mask SampleMask, n int) {
		seen := seen[:n]
		clear(seen)
		next := 0
		for d := 0; d*intervalsPerDay < n; d++ {
			lo, hi := mask.run(d, n)
			if lo < next || hi < lo || hi > n {
				t.Fatalf("%s, %d intervals: day %d's run [%d, %d) after %d", name, n, d, lo, hi, next)
			}
			for i := lo; i < hi; i++ {
				seen[i] = true
			}
			next = hi
		}
		for i, got := range seen {
			if want := observesRef(mask, i); got != want {
				t.Fatalf("%s, %d intervals: interval %d observed %v, the hour rule says %v", name, n, i, got, want)
			}
		}
	}
	for name, mask := range masks {
		check(name, mask, len(seen))
		for n := 1; n <= 2*intervalsPerDay+1; n++ {
			check(name, mask, n)
		}
	}
}

// summarizeRef is the per-sample hour-rule, sort-based Summarize the
// production path must reproduce.
func summarizeRef(s *Series, mask SampleMask) Summary {
	var all, noBT []float64
	for i, c := range s.Counters {
		if !observesRef(mask, i) {
			continue
		}
		rate := float64(c.RateOver(30))
		all = append(all, rate)
		if !s.BTActive[i] {
			noBT = append(noBT, rate)
		}
	}
	sum := Summary{Samples: len(all)}
	sum.Mean = unit.Bitrate(mean(all))
	sum.Max = unit.Bitrate(maxOf(all))
	sum.Peak = unit.Bitrate(p95Sorted(all))
	if len(noBT) > 0 {
		sum.MeanNoBT = unit.Bitrate(mean(noBT))
		sum.PeakNoBT = unit.Bitrate(p95Sorted(noBT))
	}
	return sum
}

var masks = map[string]SampleMask{"gateway": GatewayMask, "dasu": DasuMask}

func TestSummarizeMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g := &Generator{
			Capacity: unit.MbpsOf(float64(2 * seed)),
			Quality:  goodQuality(),
			Profile:  Profile{NeedMbps: 3, BTUser: seed%2 == 0, BTSessionsPerDay: 3},
		}
		series, err := g.Generate(3, randx.New(seed).Split("gen"))
		if err != nil {
			t.Fatal(err)
		}
		for name, mask := range masks {
			got, err := series.Summarize(mask)
			if err != nil {
				t.Fatal(err)
			}
			if want := summarizeRef(series, mask); got != want {
				t.Errorf("seed %d %s: Summarize = %+v, reference %+v", seed, name, got, want)
			}
		}
	}
}

// scratchCase is one user of TestScratchReuseMatchesFresh.
type scratchCase struct {
	name string
	gen  Generator
	days int
	seed uint64
}

var scratchCases = []scratchCase{
	{"bt-long", Generator{Capacity: unit.MbpsOf(6), Quality: goodQuality(),
		Profile: Profile{NeedMbps: 4, BTUser: true, BTSessionsPerDay: 6}}, 5, 11},
	{"plain-short", Generator{Capacity: unit.MbpsOf(20), Quality: goodQuality(),
		Profile: Profile{NeedMbps: 2}}, 1, 12},
}

// TestScratchReuseMatchesFresh runs a BitTorrent user over a long horizon,
// then a plain user over a short one, then the first again, all through
// one scratch. Each series and summary must equal a fresh Generate and
// Summarize field for field, which a stale BTActive mark, counter or
// session would break.
func TestScratchReuseMatchesFresh(t *testing.T) {
	var sc Scratch
	for _, c := range []scratchCase{scratchCases[0], scratchCases[1], scratchCases[0]} {
		fg := c.gen
		fresh, err := fg.Generate(c.days, randx.New(c.seed))
		if err != nil {
			t.Fatal(err)
		}
		sg := c.gen
		reused, err := sg.GenerateWith(&sc, c.days, randx.New(c.seed))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(reused.Counters, fresh.Counters) ||
			!slices.Equal(reused.BTActive, fresh.BTActive) {
			t.Fatalf("%s: the reused scratch's series differs from a fresh one", c.name)
		}
		if c.gen.Profile.BTUser && !slices.Contains(reused.BTActive, true) {
			t.Fatalf("%s: no BitTorrent-active interval, so the case checks nothing", c.name)
		}
		for name, mask := range masks {
			want, err := fresh.Summarize(mask)
			if err != nil {
				t.Fatal(err)
			}
			got, err := reused.Summarize(mask)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s %s: reused scratch gives %+v, fresh %+v", c.name, name, got, want)
			}
		}
	}
}

// TestSummarizeAllocsFree pins the scratch-held sample buffers: after
// warm-up a Summarize call allocates nothing.
func TestSummarizeAllocsFree(t *testing.T) {
	g := &Generator{Capacity: unit.MbpsOf(10), Quality: goodQuality(), Profile: Profile{NeedMbps: 3}}
	series, err := g.Generate(2, randx.New(3).Split("gen"))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := series.Summarize(DasuMask); err != nil {
			t.Fatal(err)
		}
		if _, err := series.Summarize(GatewayMask); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Summarize allocates %v times per call pair, want 0", allocs)
	}
}

// TestScratchPathAllocsFlat pins the point of the scratch: on a warm
// scratch, a GenerateWith and Summarize pair allocates no more for a
// week-long horizon than for a day, so nothing it allocates grows with
// the series.
func TestScratchPathAllocsFlat(t *testing.T) {
	c := scratchCases[0]
	var sc Scratch
	pair := func(days int) {
		g := c.gen
		series, err := g.GenerateWith(&sc, days, randx.New(c.seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := series.Summarize(DasuMask); err != nil {
			t.Fatal(err)
		}
	}
	allocs := map[int]float64{}
	for _, days := range []int{7, 1} {
		pair(7) // grow every buffer to the longest horizon
		allocs[days] = testing.AllocsPerRun(20, func() { pair(days) })
	}
	if allocs[7] > allocs[1] {
		t.Fatalf("a warm scratch pair allocates %v times over 7 days and %v over 1 day", allocs[7], allocs[1])
	}
	t.Logf("allocations per warm pair: %v (1 day), %v (7 days)", allocs[1], allocs[7])
}
