package stats

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/nwca/broadband/internal/unit"
)

func TestClassOfBoundaries(t *testing.T) {
	// Class 1 is (100, 200] kbps.
	cases := []struct {
		rate unit.Bitrate
		want CapacityClass
	}{
		{unit.KbpsOf(150), 1},
		{unit.KbpsOf(200), 1}, // upper bound inclusive
		{unit.KbpsOf(201), 2},
		{unit.KbpsOf(400), 2},
		{unit.MbpsOf(6.4), 6},  // (3.2, 6.4]
		{unit.MbpsOf(6.5), 7},  // (6.4, 12.8]
		{unit.MbpsOf(25.6), 8}, // (12.8, 25.6]
		{unit.KbpsOf(100), 0},  // (50, 100]
		{unit.KbpsOf(50), -1},  // (25, 50]
	}
	for _, c := range cases {
		if got := ClassOf(c.rate); got != c.want {
			t.Errorf("ClassOf(%v) = %d, want %d", c.rate, got, c.want)
		}
	}
}

func TestClassBoundsRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		v = 0.05 + math.Mod(math.Abs(v), 1000) // 50 kbps .. 1 Gbps
		r := unit.MbpsOf(v)
		c := ClassOf(r)
		return c.Contains(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassAdjacency(t *testing.T) {
	// Upper bound of class k equals lower bound of class k+1.
	for k := CapacityClass(-3); k <= 12; k++ {
		if k.Upper() != (k + 1).Lower() {
			t.Errorf("class %d upper %v != class %d lower %v", k, k.Upper(), k+1, (k + 1).Lower())
		}
	}
}

func TestClassString(t *testing.T) {
	c := ClassOf(unit.MbpsOf(10))
	if got := c.String(); got != "(6.4 Mbps, 12.8 Mbps]" {
		t.Errorf("String() = %q", got)
	}
}

func TestClassOfInvalid(t *testing.T) {
	if got := ClassOf(0); got != math.MinInt32 {
		t.Errorf("ClassOf(0) = %d", got)
	}
	if got := ClassOf(-5); got != math.MinInt32 {
		t.Errorf("ClassOf(-5) = %d", got)
	}
}

func TestTierOf(t *testing.T) {
	cases := []struct {
		rate unit.Bitrate
		want Tier
	}{
		{unit.KbpsOf(512), TierSub1},
		{unit.MbpsOf(1), Tier1to8},
		{unit.MbpsOf(7.9), Tier1to8},
		{unit.MbpsOf(8), Tier8to16},
		{unit.MbpsOf(16), Tier16to32},
		{unit.MbpsOf(32), TierOver32},
		{unit.MbpsOf(100), TierOver32},
	}
	for _, c := range cases {
		if got := TierOf(c.rate); got != c.want {
			t.Errorf("TierOf(%v) = %v, want %v", c.rate, got, c.want)
		}
	}
}

func TestTierStrings(t *testing.T) {
	want := []string{"<1 Mbps", "1-8 Mbps", "8-16 Mbps", "16-32 Mbps", ">32 Mbps"}
	for i, tier := range Tiers() {
		if tier.String() != want[i] {
			t.Errorf("Tier %d = %q, want %q", i, tier.String(), want[i])
		}
	}
	if Tier(99).String() != "Tier(99)" {
		t.Error("unknown tier string")
	}
}
