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

// TestHourClockMatchesMod holds the incremental hour-of-day reduction to
// math.Mod, bit for bit, over 60 days of intervals. Short intervals visit a
// dense prefix plus a window around every 12-hour mark, so every index
// whose hour lands exactly on 12 or 24 is covered; calls stay in
// increasing index order, as when a mask vector is filled.
func TestHourClockMatchesMod(t *testing.T) {
	const days = 60
	exactMarks := 0
	for _, interval := range []float64{30, 60, 7, 0.1, 3600} {
		n := int(days * 86400 / interval)
		clock := newHourClock(interval, n)
		check := func(i int) {
			want := math.Mod(float64(i)*interval/3600, 24)
			got := clock.at(i)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("interval %v i=%d: got %v (%#x), math.Mod gives %v (%#x)",
					interval, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if want == 0 || want == 12 {
				exactMarks++
			}
		}
		const dense = 1 << 20
		i := 0
		for ; i < n && i < dense; i++ {
			check(i)
		}
		// Sparse tail: a few indices either side of each 12-hour mark.
		perMark := 12 * 3600 / interval
		for m := math.Ceil(float64(i) / perMark); ; m++ {
			centre := int(math.Round(m * perMark))
			if centre-2 >= n {
				break
			}
			for j := max(centre-2, i); j <= centre+2 && j < n; j++ {
				check(j)
				i = j + 1
			}
		}
	}
	if exactMarks == 0 {
		t.Fatal("no interval landed exactly on a 12- or 24-hour mark")
	}
}

// TestHourClockFallback covers the inputs the incremental path refuses:
// they must still agree with math.Mod.
func TestHourClockFallback(t *testing.T) {
	for _, interval := range []float64{-30, math.Inf(1), math.NaN(), 1e12} {
		clock := newHourClock(interval, 100)
		if clock.exact {
			t.Errorf("interval %v: took the incremental path", interval)
		}
		for i := 0; i < 100; i++ {
			want := math.Mod(float64(i)*interval/3600, 24)
			if got := clock.at(i); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("interval %v i=%d: got %v, want %v", interval, i, got, want)
			}
		}
	}
}

func TestPeakHoursMatchesMod(t *testing.T) {
	ref := func(hour float64) bool {
		h := math.Mod(hour, 24)
		if h < 0 {
			h += 24
		}
		return h >= 12
	}
	for _, h := range []float64{0, math.Copysign(0, -1), math.Nextafter(12, 0), 12, 23.999, math.Nextafter(24, 0),
		24, 36, 47.5, -0.5, -12, -13, 1e9, math.Inf(1), math.NaN()} {
		if got, want := PeakHours(h), ref(h); got != want {
			t.Errorf("PeakHours(%v) = %v, math.Mod path gives %v", h, got, want)
		}
	}
}

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

// summarizeRef is the per-sample math.Mod, sort-based Summarize the
// production path must reproduce.
func summarizeRef(s *Series, mask SampleMask) Summary {
	var all, noBT []float64
	for i, c := range s.Counters {
		if !mask.Observes(math.Mod(float64(i)*s.Interval/3600, 24)) {
			continue
		}
		rate := float64(c.RateOver(s.Interval))
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
// Summarize field for field, which a stale BTActive mark, counter, session
// or mask vector would break.
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
		if reused.Interval != fresh.Interval || !slices.Equal(reused.Counters, fresh.Counters) ||
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
