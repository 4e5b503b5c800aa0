package unit

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseBitrate parses a human-readable bitrate such as "7.4Mbps", "512 kbps"
// or "1024" (bare numbers are bits per second). Unit suffixes are matched
// case-insensitively and an optional space before the suffix is allowed.
func ParseBitrate(s string) (Bitrate, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("unit: empty bitrate")
	}
	scale := BitPerSecond
	lower := strings.ToLower(t)
	for _, u := range []struct {
		suffix string
		scale  Bitrate
	}{
		{"gbps", Gbps}, {"gbit/s", Gbps},
		{"mbps", Mbps}, {"mbit/s", Mbps},
		{"kbps", Kbps}, {"kbit/s", Kbps},
		{"bps", BitPerSecond}, {"bit/s", BitPerSecond},
	} {
		if strings.HasSuffix(lower, u.suffix) {
			scale = u.scale
			t = strings.TrimSpace(t[:len(t)-len(u.suffix)])
			break
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, fmt.Errorf("unit: bad bitrate %q: %w", s, err)
	}
	r := Bitrate(v) * scale
	if !r.IsValid() {
		return 0, fmt.Errorf("unit: bitrate %q out of range", s)
	}
	return r, nil
}
