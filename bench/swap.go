package main

import (
	"fmt"
	"time"

	"nfactor/internal/core"
	"nfactor/internal/netpkt"
	"nfactor/internal/nfs"
	"nfactor/internal/serve"
)

// The swap family is the control path meeting the data path: nat
// serves a trace while a second goroutine re-synthesizes nat from its
// source text and asks for a hot swap, with the behaviour gate on, at
// fixed points of the trace.

type swapSpec struct {
	trace traceSpec
	swaps int
}

type swapInputs struct {
	plane  *plane
	source string  // nat.nfl
	points []int64 // AfterPackets of each swap, multiples of the batch size
}

func prepSwap(spec swapSpec, seed int64, refN int) (*swapInputs, error) {
	p, err := prepPlane(singleNF("nat", spec.trace), seed, refN)
	if err != nil {
		return nil, err
	}
	nf, err := nfs.Load("nat")
	if err != nil {
		return nil, err
	}
	in := &swapInputs{plane: p, source: nf.Source}
	for k := 1; k <= spec.swaps; k++ {
		in.points = append(in.points, int64(k)*p.packets()/int64(spec.swaps+1)/64*64)
	}
	return in, nil
}

// gateSource holds the trace at each swap point until the swap request
// for that point is queued, so every swap meets the same table size on
// every run. The client waits, as in any closed loop.
type gateSource struct {
	inner   *serve.TraceSource
	points  []int64
	at      int64
	next    int
	reached chan int        // the source arrived at points[k]
	queued  []chan struct{} // closed once swap k is requested
}

func (g *gateSource) Next(p *netpkt.Packet) (bool, error) {
	if g.next < len(g.points) && g.at == g.points[g.next] {
		g.reached <- g.next
		<-g.queued[g.next]
		g.next++
	}
	ok, err := g.inner.Next(p)
	if ok {
		g.at++
	}
	return ok, err
}

// swapFamily measures the swap family one rep at a time: the whole
// trace with all its swaps. serve.swap_pause_ms is SwapReport.Pause and
// serve.resynth_to_serve_ms the time from the start of parsing nat.nfl
// to the first Emit stamped with the new epoch. A swap point meets the same
// table size on every rep, so each is the best over reps per point (see
// fastTime), then the mean over points.
type swapFamily struct {
	in       *swapInputs
	tr       *tracer
	r        *report
	reps     int
	pauses   [][]float64 // per swap point, one value per rep
	resynths [][]float64

	applied, blocked, windowLen, violations int64
	pauseMax                                float64
}

func newSwapFamily(in *swapInputs, tr *tracer) *swapFamily {
	return &swapFamily{in: in, tr: tr, r: newReport(),
		pauses: make([][]float64, len(in.points)), resynths: make([][]float64, len(in.points))}
}

func (f *swapFamily) step(parent *span) {
	in, tr, r, p := f.in, f.tr, f.r, f.in.plane
	repSpan := tr.begin("harness", fmt.Sprintf("rep %d", f.reps), parent)
	defer repSpan.end()
	f.reps++

	gate := &gateSource{inner: p.source(), points: in.points, reached: make(chan int)}
	for range in.points {
		gate.queued = append(gate.queued, make(chan struct{}))
	}
	firstEmit := map[uint64]time.Time{} // epoch -> its first Emit
	sink := p.sink()
	epoch := uint64(1)
	sink.onEmit = func(_ int64, o *serve.Outcome) {
		if o.Epoch > epoch {
			epoch = o.Epoch
			firstEmit[epoch] = time.Now()
		}
	}
	srv, err := serve.New(p.cand, serve.Config{Source: gate, Sink: sink})
	if err != nil {
		r.fail(1, "swap: %v", err)
		return
	}

	// The control goroutine: at every swap point, re-synthesize nat from
	// its source text and request the swap.
	stopped := make(chan struct{})
	ctlDone := make(chan struct{})
	begun := make([]time.Time, len(in.points))
	reports := make([]*serve.SwapReport, len(in.points))
	go func() {
		defer close(ctlDone)
		for k := range in.points {
			select {
			case <-gate.reached:
			case <-stopped:
				return
			}
			sp := tr.begin("core", fmt.Sprintf("resynthesize nat, swap %d", k+1), repSpan)
			begun[k] = time.Now()
			var ch <-chan *serve.SwapReport
			nf, err := nfs.FromSource("nat", in.source)
			if err == nil {
				var an *core.Analysis
				if an, err = core.Analyze("nat", nf.Prog, core.Options{Workers: workers}); err == nil {
					ch = srv.RequestSwap(serve.SwapRequest{Candidate: serve.Candidate{Analysis: an}, AfterPackets: in.points[k]})
				}
			}
			sp.end()
			close(gate.queued[k])
			if ch != nil {
				reports[k] = <-ch
			}
		}
	}()

	err = srv.Run()
	close(stopped)
	<-ctlDone
	if err != nil {
		r.fail(p.packets(), "swap: %v", err)
		return
	}
	p.check(r, srv, sink)
	f.violations += srv.Stats().EpochViolations

	for k, rep := range reports {
		if rep == nil || rep.Blocked {
			f.blocked++
			reason := "re-synthesis failed"
			if rep != nil {
				reason = rep.Reason
			}
			r.fail(1, "swap %d at packet %d not applied: %s", k+1, in.points[k], reason)
			continue
		}
		f.applied++
		ms := float64(rep.Pause.Nanoseconds()) / 1e6
		f.pauses[k] = append(f.pauses[k], ms)
		if ms > f.pauseMax {
			f.pauseMax = ms
		}
		f.windowLen = int64(rep.WindowLen)
		if at, ok := firstEmit[rep.To]; ok {
			f.resynths[k] = append(f.resynths[k], float64(at.Sub(begun[k]).Nanoseconds())/1e6)
		} else {
			r.fail(1, "swap %d: no packet was served by generation %d", k+1, rep.To)
		}
	}
}

func (f *swapFamily) finish(*span) *report {
	r := f.r
	overPoints := func(byPoint [][]float64) (float64, bool) {
		sum, n := 0.0, 0
		for _, xs := range byPoint {
			if len(xs) > 0 {
				sum += fastTime(xs)
				n++
			}
		}
		return sum / float64(n), n > 0
	}
	if v, ok := overPoints(f.pauses); ok {
		r.set("serve.swap_pause_ms", v)
	}
	if v, ok := overPoints(f.resynths); ok {
		r.set("serve.resynth_to_serve_ms", v)
	}
	if f.tr != nil {
		r.set("serve.swaps_applied", float64(f.applied))
		r.set("serve.swaps_blocked", float64(f.blocked))
		r.set("serve.swap_pause_ms_max", f.pauseMax)
		r.set("serve.swap_window_len", float64(f.windowLen))
		r.set("serve.epoch_violations", float64(f.violations))
	}
	return r
}
