package unit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBitrateScales(t *testing.T) {
	r := MbpsOf(7.4)
	if got := r.Mbps(); math.Abs(got-7.4) > 1e-12 {
		t.Errorf("Mbps() = %v, want 7.4", got)
	}
	if got := KbpsOf(512).BitsPerSecond(); got != 512e3 {
		t.Errorf("KbpsOf(512) = %v bps, want 512000", got)
	}
}

func TestBitrateString(t *testing.T) {
	cases := []struct {
		r    Bitrate
		want string
	}{
		{0, "0 bps"},
		{500, "500 bps"},
		{KbpsOf(95), "95.0 kbps"},
		{MbpsOf(7.4), "7.40 Mbps"},
		{MbpsOf(2500), "2.50 Gbps"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Bitrate(%v).String() = %q, want %q", float64(c.r), got, c.want)
		}
	}
}

func TestBitrateIsValid(t *testing.T) {
	if !MbpsOf(1).IsValid() {
		t.Error("1 Mbps should be valid")
	}
	if Bitrate(-1).IsValid() {
		t.Error("negative bitrate should be invalid")
	}
	if Bitrate(math.NaN()).IsValid() {
		t.Error("NaN bitrate should be invalid")
	}
	if Bitrate(math.Inf(1)).IsValid() {
		t.Error("Inf bitrate should be invalid")
	}
}

func TestByteSizeScales(t *testing.T) {
	s := 3 * GB / 2
	if got := s.GB(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("GB() = %v, want 1.5", got)
	}
	if got := (42 * Byte).String(); got != "42 B" {
		t.Errorf("String() = %q, want %q", got, "42 B")
	}
	if got := (2 * TB).String(); got != "2.00 TB" {
		t.Errorf("String() = %q, want %q", got, "2.00 TB")
	}
}

func TestRateVolumeRoundTrip(t *testing.T) {
	// 1 Mbps over 80 seconds is exactly 10 MB.
	v := VolumeAt(MbpsOf(1), 80)
	if v != 10*MB {
		t.Fatalf("VolumeAt = %v, want 10 MB", v)
	}
	back := v.RateOver(80)
	if math.Abs(back.Mbps()-1) > 1e-9 {
		t.Errorf("RateOver = %v, want 1 Mbps", back)
	}
}

func TestRateOverZeroDuration(t *testing.T) {
	if got := GB.RateOver(0); got != 0 {
		t.Errorf("RateOver(0) = %v, want 0", got)
	}
	if got := VolumeAt(MbpsOf(10), -5); got != 0 {
		t.Errorf("VolumeAt(-5s) = %v, want 0", got)
	}
}

func TestRateVolumeProperty(t *testing.T) {
	// For any positive rate and duration, converting to a volume and back
	// recovers the rate to within quantization error of one byte.
	f := func(rMbps, secs float64) bool {
		rMbps = 0.001 + math.Mod(math.Abs(rMbps), 1000)
		secs = 1 + math.Mod(math.Abs(secs), 10000)
		r := MbpsOf(rMbps)
		back := VolumeAt(r, secs).RateOver(secs)
		quant := Bitrate(8 / secs) // one byte of rounding
		return math.Abs(float64(back-r)) <= float64(quant)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLossRate(t *testing.T) {
	l := LossFromPercent(1.5)
	if math.Abs(float64(l)-0.015) > 1e-12 {
		t.Errorf("LossFromPercent(1.5) = %v, want 0.015", float64(l))
	}
	if math.Abs(l.Percent()-1.5) > 1e-12 {
		t.Errorf("Percent() = %v, want 1.5", l.Percent())
	}
	if !l.IsValid() {
		t.Error("1.5%% loss should be valid")
	}
	if LossRate(1.2).IsValid() || LossRate(-0.1).IsValid() || LossRate(math.NaN()).IsValid() {
		t.Error("out-of-range loss rates should be invalid")
	}
}

func TestMoneyString(t *testing.T) {
	if got := USD(53).String(); got != "$53.00" {
		t.Errorf("USD(53) = %q", got)
	}
	if got := USD(-1.5).String(); got != "-$1.50" {
		t.Errorf("USD(-1.5) = %q", got)
	}
	if got := PerMbps(0.52).String(); got != "$0.52/Mbps" {
		t.Errorf("PerMbps(0.52) = %q", got)
	}
}

func TestParseBitrate(t *testing.T) {
	cases := []struct {
		in   string
		want Bitrate
	}{
		{"7.4Mbps", MbpsOf(7.4)},
		{"512 kbps", KbpsOf(512)},
		{"1 Gbps", Gbps},
		{"100 Mbit/s", MbpsOf(100)},
		{"2048", 2048},
		{"  56 kbps ", KbpsOf(56)},
		{"0.5 MBPS", KbpsOf(500)},
	}
	for _, c := range cases {
		got, err := ParseBitrate(c.in)
		if err != nil {
			t.Errorf("ParseBitrate(%q) error: %v", c.in, err)
			continue
		}
		if math.Abs(float64(got-c.want)) > 1e-6 {
			t.Errorf("ParseBitrate(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseBitrateErrors(t *testing.T) {
	for _, in := range []string{"", "fast", "-3 Mbps", "NaN", "1e400 Mbps"} {
		if _, err := ParseBitrate(in); err == nil {
			t.Errorf("ParseBitrate(%q) succeeded, want error", in)
		}
	}
}

func TestParseBitrateStringRoundTrip(t *testing.T) {
	// String output of a parsed value must re-parse to (approximately) the
	// same rate: guards against unit drift between formatter and parser.
	f := func(v float64) bool {
		v = 0.1 + math.Mod(math.Abs(v), 1e6) // 0.1 bps .. 1 Mbps span via kbps below
		r := KbpsOf(v)
		back, err := ParseBitrate(r.String())
		if err != nil {
			return false
		}
		// String() keeps 2-3 significant decimals; allow 1% slack.
		return math.Abs(float64(back-r)) <= 0.01*float64(r)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
