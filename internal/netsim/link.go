package netsim

import (
	"fmt"

	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

// LossModel configures random packet loss on a link: an i.i.d. component
// plus an optional Gilbert–Elliott two-state burst process, which is how
// loss actually presents on the satellite and WiMAX lines the paper calls
// out (Sec. 2.2).
type LossModel struct {
	// Rate is the stationary i.i.d. loss probability applied to every packet.
	Rate unit.LossRate
	// Burst enables the Gilbert–Elliott process in addition to Rate.
	Burst bool
	// PGoodToBad and PBadToGood are per-packet state transition
	// probabilities; BadLoss is the loss probability while in the bad state.
	PGoodToBad, PBadToGood float64
	BadLoss                unit.LossRate
}

// LinkConfig describes one direction of an access link.
type LinkConfig struct {
	Rate  unit.Bitrate  // transmission capacity
	Delay float64       // one-way propagation delay, seconds
	Queue unit.ByteSize // drop-tail buffer size; 0 selects a default BDP-based buffer
	Loss  LossModel
	Name  string // for diagnostics
}

// headerSize is the per-packet overhead (IP + TCP headers) counted against
// a link's capacity.
const headerSize = 40 * unit.Byte

// LinkStats counts what happened on a link.
type LinkStats struct {
	Sent         int64 // packets offered to the link
	Delivered    int64
	DroppedQueue int64 // tail drops (congestion)
	DroppedLoss  int64 // random/burst loss
	BytesIn      unit.ByteSize
	BytesOut     unit.ByteSize
}

// LossRate reports the fraction of offered packets that were lost for any
// reason (queue or channel).
func (s LinkStats) LossRate() unit.LossRate {
	if s.Sent == 0 {
		return 0
	}
	return unit.LossRate(float64(s.DroppedQueue+s.DroppedLoss) / float64(s.Sent))
}

// Link is one direction of an access link: a fixed-rate serializer feeding a
// propagation delay, guarded by a drop-tail queue and a loss channel.
// Deliveries are handed to the receiver callback in timestamp order.
type Link struct {
	sim  *Simulator
	cfg  LinkConfig
	rng  *randx.Source
	recv func(*Packet)

	busyUntil   float64       // when the serializer frees up
	queuedBytes unit.ByteSize // bytes committed to the serializer but not yet on the wire
	inBadState  bool          // Gilbert–Elliott channel state

	stats LinkStats
}

// DefaultQueue sizes a drop-tail buffer at one bandwidth-delay product
// (against a nominal 100 ms RTT) bounded to [16 kB, 4 MB] — the shape of
// real CPE buffers.
func DefaultQueue(rate unit.Bitrate) unit.ByteSize {
	bdp := unit.VolumeAt(rate, 0.1)
	if bdp < 16*unit.KB {
		return 16 * unit.KB
	}
	if bdp > 4*unit.MB {
		return 4 * unit.MB
	}
	return bdp
}

// NewLink creates a link attached to the simulator. rng drives the loss
// processes; it must not be shared with other consumers if reproducibility
// matters.
func NewLink(sim *Simulator, cfg LinkConfig, rng *randx.Source) (*Link, error) {
	if sim == nil {
		return nil, fmt.Errorf("netsim: nil simulator")
	}
	if !cfg.Rate.IsValid() || cfg.Rate <= 0 {
		return nil, fmt.Errorf("netsim: link %q needs a positive rate, got %v", cfg.Name, cfg.Rate)
	}
	if cfg.Delay < 0 {
		return nil, fmt.Errorf("netsim: link %q has negative delay", cfg.Name)
	}
	if !cfg.Loss.Rate.IsValid() {
		return nil, fmt.Errorf("netsim: link %q has invalid loss rate", cfg.Name)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultQueue(cfg.Rate)
	}
	return &Link{sim: sim, cfg: cfg, rng: rng}, nil
}

// SetReceiver installs the delivery callback. Packets surviving the queue
// and the loss channel arrive here after serialization + propagation.
func (l *Link) SetReceiver(fn func(*Packet)) { l.recv = fn }

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Send offers a packet to the link at the current virtual time.
func (l *Link) Send(p *Packet) {
	l.stats.Sent++
	l.stats.BytesIn += p.Size
	// Drop-tail admission on the un-serialized backlog.
	if l.queuedBytes+p.Size > l.cfg.Queue {
		l.stats.DroppedQueue++
		return
	}
	wire := p.Size + headerSize
	serialize := float64(wire) * 8 / l.cfg.Rate.BitsPerSecond()
	start := l.sim.Now()
	if l.busyUntil > start {
		start = l.busyUntil
	}
	depart := start + serialize
	l.busyUntil = depart
	l.queuedBytes += p.Size
	l.sim.At(depart, func() {
		l.queuedBytes -= p.Size
		if l.dropByChannel() {
			l.stats.DroppedLoss++
			return
		}
		l.stats.Delivered++
		l.stats.BytesOut += p.Size
		if l.recv != nil {
			l.sim.At(depart+l.cfg.Delay, func() { l.recv(p) })
		}
	})
}

// dropByChannel samples the loss processes for one packet.
func (l *Link) dropByChannel() bool {
	if l.rng == nil {
		return false
	}
	m := l.cfg.Loss
	if m.Burst {
		if l.inBadState {
			if l.rng.Bool(m.PBadToGood) {
				l.inBadState = false
			}
		} else if l.rng.Bool(m.PGoodToBad) {
			l.inBadState = true
		}
		if l.inBadState && l.rng.Bool(float64(m.BadLoss)) {
			return true
		}
	}
	return l.rng.Bool(float64(m.Rate))
}
