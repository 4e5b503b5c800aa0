package traffic

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

// TestHourClockMatchesMod holds the incremental hour-of-day reduction to
// the per-sample math.Mod it replaced, bit for bit, over 60 days of
// samples. Short intervals visit a dense prefix plus a window around
// every 12-hour mark, so every index whose hour lands exactly on 12 or 24
// is covered; calls stay in increasing index order, as in Summarize.
func TestHourClockMatchesMod(t *testing.T) {
	const days = 60
	starts := []float64{0, math.Nextafter(12, 0), 12, 23.5, -3}
	intervals := []float64{30, 60, 7, 0.1, 3600}
	exactMarks := 0
	for _, start := range starts {
		for _, interval := range intervals {
			n := int(days * 86400 / interval)
			clock := newHourClock(start, interval, n)
			check := func(i int) {
				h := start + float64(i)*interval/3600
				want := math.Mod(h, 24)
				got := clock.at(i)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("start %v interval %v i=%d: got %v (%#x), math.Mod gives %v (%#x)",
						start, interval, i, got, math.Float64bits(got), want, math.Float64bits(want))
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
				centre := int(math.Round(m*perMark - start*3600/interval))
				if centre-2 >= n {
					break
				}
				for j := max(centre-2, i); j <= centre+2 && j < n; j++ {
					check(j)
					i = j + 1
				}
			}
		}
	}
	if exactMarks == 0 {
		t.Fatal("no sample landed exactly on a 12- or 24-hour mark")
	}
}

// TestHourClockFallback covers the inputs the incremental path refuses:
// they must still agree with math.Mod.
func TestHourClockFallback(t *testing.T) {
	for _, c := range []struct{ start, interval float64 }{
		{-3, 30}, {5, -30}, {math.Inf(1), 30}, {math.NaN(), 30}, {1e12, 30},
	} {
		clock := newHourClock(c.start, c.interval, 100)
		if clock.exact {
			t.Errorf("start %v interval %v: took the incremental path", c.start, c.interval)
		}
		for i := 0; i < 100; i++ {
			want := math.Mod(c.start+float64(i)*c.interval/3600, 24)
			if got := clock.at(i); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("start %v interval %v i=%d: got %v, want %v", c.start, c.interval, i, got, want)
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

// FuzzP95 holds the selection-based p95 to the sort-based reference, bit
// for bit.
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
		got := p95(append([]float64(nil), xs...))
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("p95(%v) = %v, sorted reference gives %v", xs, got, want)
		}
	})
}

// TestP95LinearOnTies guards the tie handling of the selection: a long
// all-equal slice must not degrade it to quadratic time (this would take
// minutes if it did).
func TestP95LinearOnTies(t *testing.T) {
	xs := make([]float64, 1<<20)
	if got := p95(xs); got != 0 {
		t.Fatalf("p95 of zeros = %v", got)
	}
	for i := range xs {
		xs[i] = float64(i % 3)
	}
	if got, want := p95(append([]float64(nil), xs...)), p95Sorted(xs); got != want {
		t.Fatalf("p95 = %v, want %v", got, want)
	}
}

// summarizeRef is the per-sample math.Mod, sort-based Summarize the
// production path must reproduce.
func summarizeRef(s *Series, mask SampleMask) Summary {
	var all, noBT []float64
	for i, c := range s.Counters {
		if !mask(math.Mod(s.StartHour+float64(i)*s.Interval/3600, 24)) {
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
		for _, start := range []float64{0, 7.25, 12} {
			series.StartHour = start
			for name, mask := range map[string]SampleMask{"gateway": GatewayMask, "dasu": DasuMask} {
				got, err := series.Summarize(mask)
				if err != nil {
					t.Fatal(err)
				}
				if want := summarizeRef(series, mask); got != want {
					t.Errorf("seed %d start %v %s: Summarize = %+v, reference %+v", seed, start, name, got, want)
				}
			}
		}
	}
}

// TestSummarizeAllocsFree pins the pooled sample buffers: after warm-up a
// Summarize call allocates nothing.
func TestSummarizeAllocsFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
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
