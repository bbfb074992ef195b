package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"nfactor/internal/core"
	"nfactor/internal/netpkt"
	"nfactor/internal/serve"
)

// The wire family is the real daemon path: firewall behind a UDPSource
// on 127.0.0.1 (loopback, not a link), one generator goroutine, one
// socket, one trace line per datagram, batch 64.
const (
	wireWindow    = 128             // datagrams outstanding in the closed loop
	wireBacklog   = 192             // datagrams outstanding in an open loop before the generator holds back
	wireRate      = 5000.0          // pps of the open loop that yields wire_p50_us / wire_p99_us
	wireRateHigh  = 20000.0         // pps of the traced run's second open loop
	wireLimitUs   = 15000.0         // latency limit on p99 at wireRate
	wireStall     = 2 * time.Second // an unanswered datagram is lost after this long
	wireTracePkts = 32768           // base trace, cycled
	wireSlice     = 8192            // the closed loop's rate is taken over slices of this many datagrams
)

type wireInputs struct {
	an    *core.Analysis
	trace []netpkt.Packet
	lines [][]byte
	ref   []netpkt.Verdict
}

func prepWire(seed int64, refN int) (*wireInputs, error) {
	an, err := analyzeNF("firewall")
	if err != nil {
		return nil, err
	}
	in := &wireInputs{an: an}
	ts := traceSpec{packets: wireTracePkts, flows: 1024, replies: true}
	if in.trace, err = genTrace("firewall", an, ts, seed); err != nil {
		return nil, err
	}
	in.lines = make([][]byte, len(in.trace))
	for i := range in.trace {
		in.lines[i] = []byte(netpkt.FormatLine(in.trace[i]))
	}
	if in.ref, err = referenceVerdicts([]*core.Analysis{an}, in.trace, refN); err != nil {
		return nil, err
	}
	in.trace, in.lines, in.ref = offHeap.packets(in.trace), offHeap.lines(in.lines), offHeap.verdicts(in.ref)
	return in, nil
}

// wireResult is one phase: a fresh server and socket, sent datagrams,
// and what came out of the sink.
type wireResult struct {
	sent, answered int64
	sliceRates     []float64 // closed loop: datagrams per second over each wireSlice answered
	latUs          []float64 // open loop: due time to Emit, ascending; lost datagrams count as wireStall
	lateUs         []float64 // open loop: due time to actual send, ascending
	malformed      int64
}

// wirePhase runs one loop for dur. rate 0 is the closed loop: at most
// wireWindow datagrams outstanding. Otherwise datagram i is due at
// start + i/rate whatever the server does, and its latency runs from
// that due time to its Sink.Emit. The datagram count is a multiple of
// the batch size, so the last batch fills; the source is closed once
// the last datagram is answered (or wireStall after the last send).
func wirePhase(in *wireInputs, rate float64, dur time.Duration, r *report, what string) (*wireResult, error) {
	udp, err := serve.NewUDPSource("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("udp", udp.Addr().String())
	if err != nil {
		udp.Close()
		return nil, err
	}
	defer conn.Close()

	res := &wireResult{}
	var answered, startNs atomic.Int64
	var sliceStart int64
	refill := make(chan struct{}, wireWindow/64) // closed loop: one token per batch answered
	sink := &checkSink{ref: in.ref}
	sink.onEmit = func(seq int64, _ *serve.Outcome) {
		if rate > 0 {
			due := startNs.Load() + int64(float64(seq-1)/rate*1e9)
			res.latUs = append(res.latUs, float64(time.Now().UnixNano()-due)/1e3)
		} else {
			if seq%64 == 0 {
				refill <- struct{}{}
			}
			if seq%wireSlice == 0 {
				now := time.Now().UnixNano()
				if sliceStart != 0 {
					res.sliceRates = append(res.sliceRates, wireSlice*1e9/float64(now-sliceStart))
				}
				sliceStart = now
			}
		}
		answered.Add(1)
	}
	srv, err := serve.New(serve.Candidate{Analysis: in.an}, serve.Config{Source: udp, Sink: sink})
	if err != nil {
		udp.Close()
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Run() }()

	total := int64(rate*dur.Seconds()) / 64 * 64
	start := time.Now()
	startNs.Store(start.UnixNano())
	// send is the generator: it returns the number of datagrams written.
	// It never yields in a loop: a goroutine that does is always runnable,
	// and then the scheduler polls the network only every 10 ms. The
	// closed loop blocks until a batch is answered; the open loop sleeps in the kernel
	// (time.Sleep is only good to a millisecond) and spins the last 80 us.
	send := func() int64 {
		for i := int64(0); ; i++ {
			if rate > 0 {
				if i >= total {
					return i
				}
				due := start.Add(time.Duration(float64(i) / rate * 1e9))
				// After a stall the generator sends everything overdue at
				// once. Hold that burst below what the loopback socket
				// buffer takes, so the stall shows as latency, not as loss.
				for i-answered.Load() >= wireBacklog {
					time.Sleep(100 * time.Microsecond)
				}
				for wait := time.Until(due); wait > 0; wait = time.Until(due) {
					if wait > 100*time.Microsecond {
						ts := syscall.NsecToTimespec(int64(wait - 80*time.Microsecond))
						syscall.Nanosleep(&ts, nil)
					}
				}
				res.lateUs = append(res.lateUs, float64(time.Since(due).Nanoseconds())/1e3)
			} else {
				if i%64 == 0 && time.Since(start) >= dur {
					return i
				}
				// One wake-up per batch, not per datagram: the generator
				// sends a batch while the server works on the one before.
				if i >= wireWindow && i%64 == 0 {
					select {
					case <-refill:
					case <-time.After(wireStall):
						return i // datagrams were lost; stop sending
					}
				}
			}
			if _, err := conn.Write(in.lines[i%int64(len(in.lines))]); err != nil {
				return i
			}
		}
	}
	res.sent = send()
	for deadline := time.Now().Add(wireStall); answered.Load() < res.sent && time.Now().Before(deadline); {
		time.Sleep(200 * time.Microsecond)
	}
	elapsed := time.Since(start)
	udp.Close()
	if err := <-done; err != nil {
		return nil, err
	}
	if rate == 0 && len(res.sliceRates) == 0 && sink.n > 0 {
		// Too slow a machine (or too short a phase) to fill two slices:
		// the whole phase is the one slice.
		res.sliceRates = []float64{float64(sink.n) / elapsed.Seconds()}
	}

	res.answered = sink.n
	res.malformed = udp.Malformed()
	for lost := res.sent - res.answered; lost > 0; lost-- {
		res.latUs = append(res.latUs, float64(wireStall.Microseconds()))
	}
	sort.Float64s(res.latUs)
	sort.Float64s(res.lateUs)

	sink.verify(r, what, res.sent)
	if v := srv.Stats().EpochViolations; v > 0 {
		r.fail(v, "%s: %d epoch violations", what, v)
	}
	if res.malformed > 0 {
		r.fail(res.malformed, "%s: %d malformed datagrams", what, res.malformed)
	}
	r.ops += res.sent
	return res, nil
}

// wireFamily measures the wire family in phases, each on a fresh server
// and socket: an open loop at wireRate for wireOpen and, in the traced
// run, a closed loop for wireClosed before it. wire_p50_us and
// wire_p99_us are the medians over the open-loop phases of each phase's
// percentile, so one stall of the machine spoils one phase, not the
// figure. serve.wire_pps is the best rate over slices of wireSlice
// datagrams of the closed loop (see fastRate).
type wireFamily struct {
	in         *wireInputs
	tr         *tracer
	r          *report
	sliceRates []float64
	p50s, p99s []float64 // per open-loop phase
	samples    int       // latency samples per open-loop phase
	lateUs     []float64
	lost       int64
	malformed  int64
	closed     time.Duration // length of a closed-loop phase
	open       time.Duration // length of an open-loop phase
}

const (
	wireClosed = 400 * time.Millisecond
	wireOpen   = 500 * time.Millisecond // 2496 datagrams at wireRate: 25 beyond the 99th percentile
)

func newWireFamily(in *wireInputs, tr *tracer, quick bool) *wireFamily {
	w := &wireFamily{in: in, tr: tr, r: newReport(), closed: wireClosed, open: wireOpen}
	if quick {
		w.closed, w.open = wireClosed/2, wireOpen/5 // the closed loop must still fill a few slices
	}
	return w
}

// phase runs one loop on a fresh server and socket and books its
// losses.
func (w *wireFamily) phase(name string, rate float64, dur time.Duration, sp *span) *wireResult {
	s := w.tr.begin("serve", name, sp)
	defer s.end()
	res, err := wirePhase(w.in, rate, dur, w.r, name)
	if err != nil {
		w.r.fail(1, "%s: %v", name, err)
		return nil
	}
	w.lost += res.sent - res.answered
	w.malformed += res.malformed
	return res
}

func (w *wireFamily) step(sp *span) {
	if w.tr != nil {
		if res := w.phase("wire closed loop", 0, w.closed, sp); res != nil {
			w.sliceRates = append(w.sliceRates, res.sliceRates...)
		}
	}
	if res := w.phase(fmt.Sprintf("wire open loop %.0f pps", wireRate), wireRate, w.open, sp); res != nil {
		w.p50s = append(w.p50s, quantile(res.latUs, 0.50))
		w.p99s = append(w.p99s, quantile(res.latUs, 0.99))
		w.samples = len(res.latUs)
		w.lateUs = append(w.lateUs, res.lateUs...)
	}
}

// finish folds the phases into the family's report. The traced run
// adds an open loop at wireRateHigh and the decode layer calls.
func (w *wireFamily) finish(sp *span) *report {
	r := w.r
	if len(w.sliceRates) > 0 {
		r.set("serve.wire_pps", fastRate(w.sliceRates))
		r.samples["serve.wire_pps"] = len(w.sliceRates)
	}
	if len(w.p99s) > 0 {
		r.set("wire_p50_us", median(w.p50s))
		r.set("wire_p99_us", median(w.p99s))
		r.samples["wire_p50_us"], r.samples["wire_p99_us"] = w.samples, w.samples
	}
	if p99 := r.values["wire_p99_us"]; p99 > wireLimitUs {
		r.notes = append(r.notes, fmt.Sprintf("latency limit missed: p99 %.0f us > %.0f us at %.0f pps", p99, wireLimitUs, wireRate))
	}
	if w.tr == nil {
		return r
	}

	sort.Float64s(w.lateUs)
	r.setQ("serve.gen_late_us_p99", w.lateUs, 0.99)
	if high := w.phase(fmt.Sprintf("wire open loop %.0f pps", wireRateHigh), wireRateHigh, w.open, sp); high != nil {
		r.setQ("serve.wire_p50_us_20k", high.latUs, 0.50)
		r.setQ("serve.wire_p99_us_20k", high.latUs, 0.99)
	}
	r.set("serve.wire_lost", float64(w.lost))
	r.set("netpkt.malformed", float64(w.malformed))

	in, tr := w.in, w.tr
	n := int64(len(in.lines))
	d, err := tr.call("netpkt", "ParseLine", sp, func() error {
		for _, l := range in.lines {
			if _, err := netpkt.ParseLine(string(l)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		r.fail(1, "netpkt.ParseLine: %v", err)
	}
	r.set("netpkt.parse_ns_pkt", float64(d.Nanoseconds())/float64(n))
	d, _ = tr.call("netpkt", "FormatLine", sp, func() error {
		for i := range in.trace {
			netpkt.FormatLine(in.trace[i])
		}
		return nil
	})
	r.set("netpkt.format_ns_pkt", float64(d.Nanoseconds())/float64(n))
	if d, err := udpNext(in, tr, sp); err != nil {
		r.fail(1, "UDPSource.Next: %v", err)
	} else {
		r.set("serve.udp_next_ns_pkt", float64(d.Nanoseconds())/float64(n))
	}
	return r
}

// udpNext times UDPSource.Next alone: no server, the caller reads one
// pass of the trace while the generator keeps wireWindow datagrams in
// the socket.
func udpNext(in *wireInputs, tr *tracer, parent *span) (time.Duration, error) {
	udp, err := serve.NewUDPSource("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer udp.Close()
	conn, err := net.Dial("udp", udp.Addr().String())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	// A lost datagram would leave Next blocked for ever.
	watchdog := time.AfterFunc(10*wireStall, func() { udp.Close() })
	defer watchdog.Stop()
	var read atomic.Int64
	stop := make(chan struct{})
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		for i := int64(0); i < int64(len(in.lines)); i++ {
			for i-read.Load() >= wireWindow {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
			if _, err := conn.Write(in.lines[i]); err != nil {
				return
			}
		}
	}()
	d, err := tr.call("serve", "UDPSource.Next", parent, func() error {
		var p netpkt.Packet
		for i := 0; i < len(in.lines); i++ {
			if ok, err := udp.Next(&p); !ok || err != nil {
				return fmt.Errorf("datagram %d: ok=%v err=%v", i, ok, err)
			}
			read.Add(1)
		}
		return nil
	})
	close(stop)
	<-genDone
	return d, err
}
