package main

import (
	"fmt"
	"runtime"
	"time"
)

// workloadSpec is one set of inputs the benchmark runs. Every workload
// runs every family — data, wire, control and, traced, swap — so that
// every metric is defined on every workload. The workloads differ in
// the serving planes of the data family and in the table size the swap
// family hot-swaps under; the wire and the control family have one
// input set and run it in every workload.
type workloadSpec struct {
	name   string
	why    string
	data   []planeSpec
	probes []planeSpec // laddered by the traced run only
	swap   swapSpec
}

const (
	famData    = "data"
	famWire    = "wire"
	famControl = "control"
	famSwap    = "swap"
)

// weight sets each family's part of -seconds among the families a run
// measures: the untraced run leaves the swap family out, since every
// figure it yields is a per-layer metric. The families take turns
// through the whole run.
var weight = map[string]float64{famData: 4, famControl: 3.5, famSwap: 2.5, famWire: 1.5}

// turn is how long a family keeps stepping once it is its turn. Every
// turn starts from a collected heap.
const turn = 100 * time.Millisecond

// ballast is a pointer-free allocation a run holds and never touches:
// it costs neither resident memory nor collector time, but counts as
// live heap. The bulk inputs are off the heap (arena.go), which leaves a
// live heap of a few MB on every workload but million-flows; the
// collector would then start every few MB allocated, synthesis and the
// swap gates would spend a third of their time in it, and how much of
// that landed on the second core would decide the reading. With the
// ballast the collector paces itself as in a process with a heap of
// that size: a collection every ballastBytes allocated, costing what
// the program's own heap makes it cost. It also keeps the runtime from
// handing million-flows' tables back to the operating system between
// passes, which stalled the wire family's server for milliseconds at a
// time.
const ballastBytes = 128 << 20

// explorePaths is the path budget of the traced run's exploration.
const explorePaths = 1000

// probePlanes are laddered by the traced run for the per-layer figures
// only: a full plane for the telemetry and obsrv rungs (hot-flows has
// its own) and the sharded engine shapes, which take two workers
// besides the serving loop and so cannot be timed to a bound on a
// two-core sandbox.
var probePlanes = func() []planeSpec {
	full := singleNF("firewall", traceSpec{packets: 16384, flows: 1024, replies: true, cover: true})
	full.passes, full.full = 4, true
	shapes := traceSpec{packets: 32768, flows: 4096, churn: 0.1}
	return []planeSpec{
		full,
		{name: "dpi-ids", nfs: []string{"dpi", "snortlite"}, shards: workers, trace: shapes, passes: 2},
		{name: "nat", nfs: []string{"nat"}, shards: workers, trace: shapes, passes: 2},
		{name: "lb", nfs: []string{"lb"}, shards: workers, trace: shapes, passes: 2},
	}
}()

var (
	smallSwap = swapSpec{trace: traceSpec{packets: 32768, flows: 2048, replies: true}, swaps: 4}
	largeSwap = swapSpec{trace: traceSpec{packets: 131072, flows: 32768, replies: true}, swaps: 4}
)

func workloads() []workloadSpec {
	var hot []planeSpec
	for _, nf := range corpusNFs {
		p := singleNF(nf, traceSpec{packets: 16384, flows: 1024, replies: true, cover: true})
		p.passes, p.full = 4, true
		hot = append(hot, p)
	}
	hot = append(hot, planeSpec{name: "fw-rl-ids-lb", nfs: []string{"firewall", "ratelimit", "snortlite", "lb"},
		trace: traceSpec{packets: 16384, flows: 1024}, passes: 4})

	var million []planeSpec
	for _, nf := range []string{"nat", "firewall"} {
		p := singleNF(nf, traceSpec{packets: 1 << 17, flows: 16384, churn: 0.5})
		p.passes = 2
		million = append(million, p)
	}

	return []workloadSpec{
		{name: "hot-flows", data: hot, probes: probePlanes[1:], swap: smallSwap,
			why: "8 corpus NFs and the fused chain, 1024 Zipf flows each: cache-resident, so dispatch tree, guards and actions do the work, not inserts; traced, nat is hot-swapped at 2048 flows"},
		{name: "million-flows", data: million, probes: probePlanes, swap: largeSwap,
			why: "nat and firewall, 65 000 distinct flows each, every trace served twice: far beyond the core's cache, so inserts, lookups and map growth dominate; traced, nat is hot-swapped as its table grows"},
	}
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks a workload for the smoke test: same planes, same
// checks, traces and path budgets a fraction of the size.
func (w workloadSpec) scaled(div int) workloadSpec {
	shrink := func(n int) int {
		if n /= div; n < 2048 {
			n = 2048
		}
		return n
	}
	planes := func(specs []planeSpec) []planeSpec {
		out := make([]planeSpec, len(specs))
		for i, p := range specs {
			p.trace.packets = shrink(p.trace.packets)
			p.trace.flows = shrink(p.trace.flows) / 8
			out[i] = p
		}
		return out
	}
	w.data, w.probes = planes(w.data), planes(w.probes)
	w.swap.trace.packets, w.swap.trace.flows = shrink(w.swap.trace.packets), shrink(w.swap.trace.flows)/8
	return w
}

// runOpts are the settings of one run of one workload.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
}

// Every family's inputs are built at least minSetups times, and until
// setupFloor has been spent building them or maxSetups is reached, so
// that a build of a tenth of a second is timed as steadily as one of a
// second. setup_s sums the families' best build times (see fastTime).
const (
	minSetups  = 3
	maxSetups  = 9
	setupFloor = 600 * time.Millisecond
)

// stepper is one family being measured: step takes one sample (a pass
// of a plane, a wire phase, a control round, a swap rep), finish folds
// the samples into the family's report.
type stepper interface {
	step(sp *span)
	finish(sp *span) *report
}

// runWorkload runs the families of w. Their inputs are built from
// the seed, several times over for a steady setup_s. Then the families
// take turns, the family furthest behind its share of -seconds going
// next: every family's samples are spread over the whole run, so each
// meets the machine's quiet seconds and a slow stretch costs each a few
// samples, not one of them all of its own. Every turn starts from a
// collected heap, so no family pays for another's garbage.
func runWorkload(w workloadSpec, o runOpts) (*report, []traceEvent) {
	ballast := make([]byte, ballastBytes)
	defer runtime.KeepAlive(ballast)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	refN, diffN, least, paths := refPackets, diffPackets, minSetups, explorePaths
	if o.quick {
		w, refN, diffN, least, paths = w.scaled(64), 1000, 50, 1, explorePaths/16
	}

	type family struct {
		name  string
		prep  func() (any, error)
		start func(in any, sp *span) stepper
		span  *span
		m     stepper
		used  time.Duration
		limit time.Duration
	}
	fams := []*family{
		{name: famData,
			prep:  func() (any, error) { return prepData(w, o.seed, refN, o.trace) },
			start: func(in any, sp *span) stepper { return newDataFamily(in.(*dataInputs), tr, sp) }},
		{name: famWire,
			prep:  func() (any, error) { return prepWire(o.seed, refN) },
			start: func(in any, sp *span) stepper { return newWireFamily(in.(*wireInputs), tr, o.quick) }},
		{name: famControl,
			prep:  func() (any, error) { return prepControl(o.seed, diffN) },
			start: func(in any, sp *span) stepper { return newControlFamily(in.(*controlInputs), paths, tr) }},
	}
	if o.trace {
		fams = append(fams, &family{name: famSwap,
			prep:  func() (any, error) { return prepSwap(w.swap, o.seed, refN) },
			start: func(in any, sp *span) stepper { return newSwapFamily(in.(*swapInputs), tr) }})
	}
	weights := 0.0
	for _, f := range fams {
		weights += weight[f.name]
	}

	total := newReport()
	root := tr.begin("harness", "run", nil)
	ws := tr.begin("harness", "workload "+w.name, root)
	var setup float64
	var live []*family
	for _, f := range fams {
		f.span = tr.begin("harness", "family "+f.name, ws)
		var in any
		var times []float64
		var spent time.Duration
		for k := 0; k < least || (!o.quick && k < maxSetups && spent < setupFloor); k++ {
			in = nil
			runtime.GC()
			d, err := tr.call("harness", fmt.Sprintf("setup %d", k), f.span, func() (err error) {
				in, err = f.prep()
				return err
			})
			if err != nil {
				total.fail(1, "%s setup: %v", f.name, err)
				in = nil
				break
			}
			times = append(times, d.Seconds())
			spent += d
		}
		if in != nil {
			setup += fastTime(times)
			f.m = f.start(in, f.span)
			f.limit = time.Duration(weight[f.name] / weights * o.seconds * float64(time.Second))
			live = append(live, f)
		}
	}
	total.set("setup_s", setup)

	for {
		var next *family
		for _, f := range live {
			if f.used < f.limit && (next == nil || float64(f.used)/float64(f.limit) < float64(next.used)/float64(next.limit)) {
				next = f
			}
		}
		if next == nil {
			break
		}
		runtime.GC()
		t0 := time.Now()
		for spent := time.Duration(0); spent < turn; spent = time.Since(t0) {
			next.m.step(next.span)
		}
		next.used += time.Since(t0)
	}
	for _, f := range live {
		total.merge(f.m.finish(f.span))
	}
	for _, f := range fams {
		f.span.end()
	}
	ws.end()
	root.end()
	if tr == nil {
		return total, nil
	}
	return total, tr.events
}

// dataInputs are the data family's prepared planes; probes are only
// measured by the traced run's ladder.
type dataInputs struct {
	planes []*plane
	probes []*plane
}

func prepData(w workloadSpec, seed int64, refN int, traced bool) (*dataInputs, error) {
	in := &dataInputs{}
	for i, spec := range w.data {
		p, err := prepPlane(spec, seed+int64(i), refN)
		if err != nil {
			return nil, err
		}
		in.planes = append(in.planes, p)
	}
	if !traced {
		return in, nil
	}
	for _, spec := range w.probes {
		p, err := prepPlane(spec, seed, refN)
		if err != nil {
			return nil, err
		}
		in.probes = append(in.probes, p)
	}
	return in, nil
}
