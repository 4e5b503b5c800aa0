package netsim

import (
	"fmt"
	"math"

	"github.com/nwca/broadband/internal/unit"
)

// MSS is the Ethernet-sized TCP segment payload of every simulated
// sender. The fluid model's Mathis caps take it too, so that the flow-level
// and the packet-level TCP agree on the segment size.
const MSS = 1460 * unit.Byte

// The simplified TCP Reno implementation used by the measurement harness
// has one configuration: an MSS segment, the RFC 6928 initial window, the
// common 200 ms RTO floor and a window clamp far above any simulated
// bandwidth-delay product.
const (
	mss         = int64(MSS) // segment payload size, bytes
	initialCwnd = 10         // initial congestion window, segments
	minRTO      = 0.2        // RTO floor, seconds
	maxCwnd     = 10000      // window clamp, segments
)

// TCPSender is a simplified TCP Reno source: slow start, congestion
// avoidance, fast retransmit/recovery on three duplicate ACKs, and an
// exponential-backoff retransmission timer. It is not a byte-faithful TCP —
// it exists so that simulated NDT throughput reacts to loss, RTT and buffer
// size with the right dynamics (cf. the Mathis model it is validated
// against in tests).
type TCPSender struct {
	sim  *Simulator
	data *Link // direction carrying segments
	flow Flow

	cwnd     float64 // congestion window, in segments
	ssthresh float64 // slow-start threshold, in segments
	nextSeq  int64   // next new byte to transmit
	sndUna   int64   // oldest unacknowledged byte
	dupAcks  int
	// recovering marks fast recovery; recoverSeq is the sequence that must
	// be cumulatively acknowledged to exit it. retxNext is the sequential
	// retransmission pointer: tail-drop losses are contiguous runs, so the
	// recovery phase resends from the cumulative-ACK point forward, one
	// segment per arriving ACK (packet conservation). This fills an N-drop
	// burst in roughly one RTT instead of classic NewReno's N RTTs, playing
	// the role SACK-based recovery does in real stacks.
	recovering bool
	recoverSeq int64
	retxNext   int64

	srtt, rttvar, rto float64
	rtoGen            int64 // invalidates stale timer events

	limitBytes int64 // 0 means unlimited (time-bounded transfers)
	ackedBytes int64
	startedAt  float64
	done       bool
	onComplete func()

	retransmits int64
	timeouts    int64
}

// NewTCPSender creates a sender that transmits over data and expects
// acknowledgments to be delivered via OnAck (typically wired to the reverse
// link's receiver). limitBytes of 0 streams until the simulation stops.
func NewTCPSender(sim *Simulator, data *Link, flow Flow, limitBytes int64) (*TCPSender, error) {
	if sim == nil || data == nil {
		return nil, fmt.Errorf("netsim: TCP sender needs a simulator and a data link")
	}
	if limitBytes < 0 {
		return nil, fmt.Errorf("netsim: negative transfer size %d", limitBytes)
	}
	return &TCPSender{
		sim:        sim,
		data:       data,
		flow:       flow,
		cwnd:       initialCwnd,
		ssthresh:   math.Inf(1),
		rto:        1.0, // RFC 6298 initial RTO
		limitBytes: limitBytes,
	}, nil
}

// SetOnComplete registers a callback invoked when a bounded transfer has
// been fully acknowledged.
func (s *TCPSender) SetOnComplete(fn func()) { s.onComplete = fn }

// Start begins transmission at the current virtual time.
func (s *TCPSender) Start() {
	s.startedAt = s.sim.Now()
	s.trySend()
}

// AckedBytes returns the number of payload bytes cumulatively acknowledged.
func (s *TCPSender) AckedBytes() int64 { return s.ackedBytes }

// Goodput returns the acknowledged-byte rate achieved since Start, as of
// the supplied end time.
func (s *TCPSender) Goodput(endTime float64) unit.Bitrate {
	el := endTime - s.startedAt
	if el <= 0 {
		return 0
	}
	return unit.ByteSize(s.ackedBytes).RateOver(el)
}

// SRTT returns the smoothed RTT estimate in seconds (0 before any sample).
func (s *TCPSender) SRTT() float64 { return s.srtt }

// Retransmits and Timeouts expose loss-recovery counters for diagnostics.
func (s *TCPSender) Retransmits() int64 { return s.retransmits }

// Timeouts reports how many RTO expirations occurred.
func (s *TCPSender) Timeouts() int64 { return s.timeouts }

// Done reports whether a bounded transfer has completed.
func (s *TCPSender) Done() bool { return s.done }

// flightSize is the canonical nextSeq − sndUna byte estimate of outstanding
// data; retransmissions do not perturb it.
func (s *TCPSender) flightSize() int64 { return s.nextSeq - s.sndUna }

func (s *TCPSender) trySend() {
	if s.done {
		return
	}
	window := int64(s.cwnd * float64(mss))
	for s.flightSize()+mss <= window {
		if s.limitBytes > 0 && s.nextSeq >= s.limitBytes {
			break
		}
		size := mss
		if s.limitBytes > 0 && s.nextSeq+size > s.limitBytes {
			size = s.limitBytes - s.nextSeq
		}
		s.transmit(s.nextSeq, size)
		s.nextSeq += size
	}
	s.armRTO()
}

func (s *TCPSender) transmit(seq, size int64) {
	s.data.Send(&Packet{
		Flow:   s.flow,
		Seq:    seq,
		Size:   unit.ByteSize(size),
		SentAt: s.sim.Now(),
	})
}

// OnAck processes a cumulative acknowledgment delivered from the receiver.
func (s *TCPSender) OnAck(p *Packet) {
	if s.done || !p.IsAck {
		return
	}
	ack := p.AckSeq
	switch {
	case ack > s.sndUna:
		newly := ack - s.sndUna
		s.sndUna = ack
		s.ackedBytes += newly
		s.dupAcks = 0
		s.sampleRTT(s.sim.Now() - p.SentAt)
		if s.recovering {
			if ack >= s.recoverSeq {
				// Full ACK: leave recovery at the halved window.
				s.recovering = false
				s.cwnd = s.ssthresh
			} else {
				// Partial ACK: the next hole starts exactly at the new
				// cumulative ACK; keep the retransmission pointer ahead of
				// it and resend one segment (packet conservation).
				if s.retxNext < s.sndUna {
					s.retxNext = s.sndUna
				}
				s.retransmitHole()
				s.armRTO()
				return
			}
		} else if s.cwnd < s.ssthresh {
			// Slow start: one segment per segment acknowledged.
			s.cwnd += float64(newly) / float64(mss)
		} else {
			// Congestion avoidance: ~one segment per RTT.
			s.cwnd += float64(newly) / float64(mss) / s.cwnd
		}
		if s.cwnd > maxCwnd {
			s.cwnd = maxCwnd
		}
		if s.limitBytes > 0 && s.sndUna >= s.limitBytes {
			s.done = true
			s.rtoGen++ // cancel the timer
			if s.onComplete != nil {
				s.onComplete()
			}
			return
		}
		s.armRTO()
		s.trySend()

	case ack == s.sndUna:
		if s.flightSize() == 0 {
			return // stale ACK for an idle connection
		}
		s.dupAcks++
		if s.recovering {
			// Each returning ACK clocks out one more retransmission of the
			// contiguous hole region.
			s.retransmitHole()
			return
		}
		if s.dupAcks == 3 {
			// Fast retransmit + fast recovery.
			s.ssthresh = math.Max(s.cwnd/2, 2)
			s.cwnd = s.ssthresh
			s.recovering = true
			s.recoverSeq = s.nextSeq
			s.retxNext = s.sndUna
			s.retransmitHole()
			s.armRTO()
		}
	}
}

// retransmitHole resends the next segment of the presumed-contiguous loss
// run during fast recovery, bounded by the recovery horizon.
func (s *TCPSender) retransmitHole() {
	if !s.recovering || s.retxNext >= s.recoverSeq || s.retxNext >= s.nextSeq {
		return
	}
	size := min64(mss, s.nextSeq-s.retxNext)
	s.retransmits++
	s.transmit(s.retxNext, size)
	s.retxNext += size
}

func (s *TCPSender) sampleRTT(rtt float64) {
	if rtt <= 0 {
		return
	}
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		const alpha, beta = 1.0 / 8, 1.0 / 4
		s.rttvar = (1-beta)*s.rttvar + beta*math.Abs(s.srtt-rtt)
		s.srtt = (1-alpha)*s.srtt + alpha*rtt
	}
	s.rto = math.Max(minRTO, s.srtt+4*s.rttvar)
}

func (s *TCPSender) armRTO() {
	if s.flightSize() <= 0 {
		s.rtoGen++
		return
	}
	s.rtoGen++
	gen := s.rtoGen
	s.sim.After(s.rto, func() {
		if gen != s.rtoGen || s.done || s.flightSize() <= 0 {
			return
		}
		s.timeouts++
		s.ssthresh = math.Max(s.cwnd/2, 2)
		s.cwnd = 1
		s.dupAcks = 0
		s.recovering = false
		s.rto = math.Min(s.rto*2, 60) // Karn backoff
		s.retransmits++
		s.transmit(s.sndUna, min64(mss, s.nextSeq-s.sndUna))
		s.armRTO()
	})
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TCPReceiver reassembles the byte stream and emits cumulative ACKs on the
// reverse link. Out-of-order segments are buffered; every arriving data
// segment triggers an ACK (no delayed-ACK, keeping dynamics simple and
// making dup-ACK loss signals immediate).
type TCPReceiver struct {
	sim      *Simulator
	ackPath  *Link
	flow     Flow // the data flow; ACKs travel on its reverse
	expected int64
	// ooo maps buffered segment start → end (exclusive).
	ooo map[int64]int64

	received int64 // in-order payload bytes delivered up
}

// NewTCPReceiver creates a receiver sending ACKs over ackPath.
func NewTCPReceiver(sim *Simulator, ackPath *Link, flow Flow) *TCPReceiver {
	return &TCPReceiver{sim: sim, ackPath: ackPath, flow: flow, ooo: make(map[int64]int64)}
}

// ReceivedBytes reports in-order bytes received so far.
func (r *TCPReceiver) ReceivedBytes() int64 { return r.received }

// OnData processes an arriving data segment.
func (r *TCPReceiver) OnData(p *Packet) {
	if p.IsAck {
		return
	}
	end := p.Seq + int64(p.Size)
	switch {
	case p.Seq == r.expected:
		r.expected = end
		// Drain any contiguous buffered segments.
		for {
			e, ok := r.ooo[r.expected]
			if !ok {
				break
			}
			delete(r.ooo, r.expected)
			r.expected = e
		}
	case p.Seq > r.expected:
		if old, ok := r.ooo[p.Seq]; !ok || end > old {
			r.ooo[p.Seq] = end
		}
	}
	r.received = r.expected
	r.ackPath.Send(&Packet{
		Flow:   r.flow.Reverse(),
		IsAck:  true,
		AckSeq: r.expected,
		Size:   0, // pure header; the link adds wire overhead
		SentAt: p.SentAt,
	})
}

// MathisThroughput returns the classic Mathis et al. steady-state TCP
// throughput bound MSS/RTT · C/√p with C = 1.22. The fluid simulator uses
// it to cap per-flow rates on lossy or long paths, coupling connection
// quality to achievable demand exactly where the paper's Sec. 7 effects
// operate. Zero loss returns +Inf; callers clamp with the link capacity.
func MathisThroughput(mss unit.ByteSize, rtt float64, loss unit.LossRate) unit.Bitrate {
	if rtt <= 0 || mss <= 0 {
		return 0
	}
	if loss <= 0 {
		return unit.Bitrate(math.Inf(1))
	}
	return unit.Bitrate(float64(mss) * 8 / rtt * 1.22 / math.Sqrt(float64(loss)))
}
