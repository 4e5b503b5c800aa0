// Package unit provides strongly typed quantities used throughout the
// broadband measurement and market analysis pipeline: bitrates, byte
// volumes, packet-loss rates and purchasing-power-normalized money.
//
// The paper's analysis constantly mixes kbps/Mbps scales, monthly byte
// volumes, loss percentages and per-country price levels; carrying these as
// bare float64s is how unit errors creep into measurement code. Each type
// here is a thin named float/int with explicit constructors, accessors and
// String methods, so values render unambiguously in tables and logs.
package unit

import (
	"fmt"
	"math"
)

// Bitrate is a data rate in bits per second. It is the canonical unit for
// link capacities, throughput measurements and usage (demand) figures.
type Bitrate float64

// Common bitrate scales.
const (
	BitPerSecond Bitrate = 1
	Kbps                 = 1e3 * BitPerSecond
	Mbps                 = 1e6 * BitPerSecond
	Gbps                 = 1e9 * BitPerSecond
)

// KbpsOf constructs a Bitrate from a value expressed in kilobits per second.
func KbpsOf(v float64) Bitrate { return Bitrate(v) * Kbps }

// MbpsOf constructs a Bitrate from a value expressed in megabits per second.
func MbpsOf(v float64) Bitrate { return Bitrate(v) * Mbps }

// Mbps reports the rate in megabits per second.
func (r Bitrate) Mbps() float64 { return float64(r) / float64(Mbps) }

// BitsPerSecond reports the raw bits-per-second value.
func (r Bitrate) BitsPerSecond() float64 { return float64(r) }

// IsValid reports whether the rate is finite and non-negative.
func (r Bitrate) IsValid() bool {
	return !math.IsNaN(float64(r)) && !math.IsInf(float64(r), 0) && r >= 0
}

// String renders the rate with an auto-selected scale, e.g. "7.4 Mbps".
func (r Bitrate) String() string {
	v := float64(r)
	switch {
	case math.Abs(v) >= float64(Gbps):
		return fmt.Sprintf("%.2f Gbps", v/float64(Gbps))
	case math.Abs(v) >= float64(Mbps):
		return fmt.Sprintf("%.2f Mbps", v/float64(Mbps))
	case math.Abs(v) >= float64(Kbps):
		return fmt.Sprintf("%.1f kbps", v/float64(Kbps))
	default:
		return fmt.Sprintf("%.0f bps", v)
	}
}

// ByteSize is a volume of data in bytes, used for interval byte counters and
// monthly traffic caps.
type ByteSize int64

// Common byte-volume scales (SI, matching how ISPs advertise caps).
const (
	Byte ByteSize = 1
	KB            = 1e3 * Byte
	MB            = 1e6 * Byte
	GB            = 1e9 * Byte
	TB            = 1e12 * Byte
)

// GB reports the size in (SI) gigabytes.
func (s ByteSize) GB() float64 { return float64(s) / float64(GB) }

// String renders the size with an auto-selected scale, e.g. "1.50 GB".
func (s ByteSize) String() string {
	v := float64(s)
	switch {
	case math.Abs(v) >= float64(TB):
		return fmt.Sprintf("%.2f TB", v/float64(TB))
	case math.Abs(v) >= float64(GB):
		return fmt.Sprintf("%.2f GB", v/float64(GB))
	case math.Abs(v) >= float64(MB):
		return fmt.Sprintf("%.2f MB", v/float64(MB))
	case math.Abs(v) >= float64(KB):
		return fmt.Sprintf("%.1f kB", v/float64(KB))
	default:
		return fmt.Sprintf("%d B", int64(s))
	}
}

// RateOver converts a byte volume transferred over the given duration in
// seconds to the average Bitrate it represents.
func (s ByteSize) RateOver(seconds float64) Bitrate {
	if seconds <= 0 {
		return 0
	}
	return Bitrate(float64(s) * 8 / seconds)
}

// VolumeAt reports the byte volume produced by sustaining rate r for the
// given number of seconds, rounded down to whole bytes.
func VolumeAt(r Bitrate, seconds float64) ByteSize {
	if seconds <= 0 || r <= 0 {
		return 0
	}
	return ByteSize(float64(r) * seconds / 8)
}

// LossRate is a packet-loss fraction in [0, 1]. The paper reports loss in
// percent; use Percent for display and FromPercent when ingesting survey or
// NDT values expressed that way.
type LossRate float64

// LossFromPercent converts a percentage (e.g. 1.5 for 1.5%) to a LossRate.
func LossFromPercent(p float64) LossRate { return LossRate(p / 100) }

// Percent reports the loss rate in percent.
func (l LossRate) Percent() float64 { return float64(l) * 100 }

// IsValid reports whether the loss rate lies in [0, 1].
func (l LossRate) IsValid() bool {
	return !math.IsNaN(float64(l)) && l >= 0 && l <= 1
}

// String renders the loss rate in percent, e.g. "0.120%".
func (l LossRate) String() string { return fmt.Sprintf("%.3g%%", l.Percent()) }

// USD is an amount of money in US dollars, already normalized by purchasing
// power parity (PPP) where the pipeline requires it. All cross-country price
// comparisons in the paper are made in USD PPP; keeping a dedicated type
// makes it obvious which figures have been normalized.
type USD float64

// Dollars reports the raw dollar amount.
func (m USD) Dollars() float64 { return float64(m) }

// String renders the amount as dollars and cents, e.g. "$53.00".
func (m USD) String() string {
	if m < 0 {
		return fmt.Sprintf("-$%.2f", -float64(m))
	}
	return fmt.Sprintf("$%.2f", float64(m))
}

// PerMbps is a price slope in USD per Mbps per month, the unit of the
// paper's "cost of increasing capacity" analysis (Sec. 6).
type PerMbps float64

// String renders the slope, e.g. "$0.52/Mbps".
func (p PerMbps) String() string { return fmt.Sprintf("$%.2f/Mbps", float64(p)) }
