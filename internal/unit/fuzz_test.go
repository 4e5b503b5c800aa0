package unit

import (
	"math"
	"testing"
)

// FuzzParseUnit drives the human-readable bitrate parser with arbitrary text.
// The contract under fuzz: never panic, never accept a value the rest of
// the pipeline cannot hold (negative, NaN, out of range), and keep the
// formatter/parser pair coherent — the String rendering of any accepted
// value must re-parse to nearly the same quantity.
func FuzzParseUnit(f *testing.F) {
	// Valid forms from the table tests plus every documented error path.
	for _, s := range []string{
		"7.4Mbps", "512 kbps", "1 Gbps", "100 Mbit/s", "2048", "  56 kbps ",
		"0.5 MBPS", "250GB", "1.5 TB", "100 mb", "2 kB",
		"", "fast", "-3 Mbps", "NaN", "1e400 Mbps", "big", "-1GB",
		"inf TB", "+Inf", "9e30 GB", "0x1p10 kbps", "1_000", ".", "- 1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if r, err := ParseBitrate(s); err == nil {
			if !r.IsValid() {
				t.Fatalf("ParseBitrate(%q) accepted invalid rate %v", s, float64(r))
			}
			back, err := ParseBitrate(r.String())
			if err != nil {
				t.Fatalf("ParseBitrate(%q).String() = %q does not re-parse: %v", s, r.String(), err)
			}
			// String keeps 2-3 significant decimals per scale step.
			if math.Abs(float64(back-r)) > 0.05*float64(r)+0.5 {
				t.Fatalf("ParseBitrate(%q) = %v bps, reparsed %v bps", s, float64(r), float64(back))
			}
		}
	})
}
