package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"nfactor/internal/chain"
	"nfactor/internal/core"
	"nfactor/internal/dataplane"
	"nfactor/internal/netpkt"
	"nfactor/internal/obsrv"
	"nfactor/internal/serve"
	"nfactor/internal/value"
)

// planeSpec describes one serving plane of the data family: which NFs,
// which engine shape, and the trace it is served.
type planeSpec struct {
	name   string   // NF or chain name; keys profiles
	nfs    []string // stages, one for a single NF
	shards int      // above 1 builds Sharded / ShardedChain
	trace  traceSpec
	passes int  // the trace is served this many times back to back
	full   bool // the traced run also measures the telemetry and obsrv rungs
}

func singleNF(name string, ts traceSpec) planeSpec {
	return planeSpec{name: name, nfs: []string{name}, trace: ts, passes: 1}
}

// plane is a prepared planeSpec: models synthesized, trace generated,
// reference verdicts computed.
type plane struct {
	spec   planeSpec
	ans    []*core.Analysis
	stages []chain.NamedModel // chains only
	cand   serve.Candidate
	trace  []netpkt.Packet
	ref    []netpkt.Verdict
	// Sharded single-NF planes are checked modulo dataplane.Equiv, which
	// needs the sharding classification and the configuration.
	cls    *dataplane.Classification
	config map[string]value.Value
	digest uint64 // verdict digest of the first served rep; later reps must repeat it
	served bool
}

func (p *plane) label() string {
	if p.spec.shards > 1 {
		return fmt.Sprintf("%s/%d", p.spec.name, p.spec.shards)
	}
	return p.spec.name
}

// kind names the engine shape; it selects the per-shape layer metric.
func (p *plane) kind() string {
	switch {
	case len(p.ans) > 1 && p.spec.shards > 1:
		return "shardedchain"
	case len(p.ans) > 1:
		return "chain"
	case p.spec.shards > 1:
		return "sharded"
	}
	return "engine"
}

func (p *plane) packets() int64 { return int64(len(p.trace)) * int64(p.spec.passes) }

func prepPlane(spec planeSpec, seed int64, refN int) (*plane, error) {
	p := &plane{spec: spec}
	for _, name := range spec.nfs {
		an, err := analyzeNF(name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		p.ans = append(p.ans, an)
	}
	if len(p.ans) == 1 {
		p.cand = serve.Candidate{Analysis: p.ans[0], Shards: spec.shards}
		if spec.shards > 1 {
			config, state, err := p.ans[0].ConfigAndState(nil)
			if err != nil {
				return nil, err
			}
			if p.cls, err = dataplane.Classify(p.ans[0].Model, config, state); err != nil {
				return nil, fmt.Errorf("%s: %w", spec.name, err)
			}
			p.config = config
		}
	} else {
		for _, an := range p.ans {
			nm, err := an.Named()
			if err != nil {
				return nil, err
			}
			p.stages = append(p.stages, nm)
		}
		p.cand = serve.Candidate{Stages: p.stages, Shards: spec.shards}
	}
	var err error
	if p.trace, err = genTrace(spec.name, p.ans[0], spec.trace, seed); err != nil {
		return nil, fmt.Errorf("%s: trace: %w", spec.name, err)
	}
	if p.ref, err = referenceVerdicts(p.ans, p.trace, refN); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	p.trace, p.ref = offHeap.packets(p.trace), offHeap.verdicts(p.ref)
	return p, nil
}

func (p *plane) source() *serve.TraceSource {
	return serve.NewTraceSource(p.trace, true, p.packets())
}

func (p *plane) sink() *checkSink {
	s := &checkSink{ref: p.ref}
	if p.cls != nil {
		s.eq = dataplane.NewEquiv(p.cls, p.config) // fresh: it learns the renaming as the pass goes
	}
	return s
}

// segmentPackets is the length of the segments a served pass is timed
// in: short enough that one rep or another meets each of them on a
// quiet machine, long enough (several ms) that a clock reading costs
// nothing.
const segmentPackets = 16384

// pass is one whole trace served through a fresh serve.Server.
type pass struct {
	srv     *serve.Server
	wall    time.Duration // of Server.Run
	mallocs uint64        // heap allocations made during it
	// segments are the seconds between the start of Server.Run, every
	// sink stamp and its return: they add up to wall.
	segments []float64
}

// run serves the plane's whole trace through a fresh serve.Server.
func (p *plane) run(sink *checkSink, obs *obsrv.Options) (*pass, error) {
	srv, err := serve.New(p.cand, serve.Config{Source: p.source(), Sink: sink, Obs: obs})
	if err != nil {
		return nil, err
	}
	sink.every = segmentPackets
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err = srv.Run()
	end := time.Now()
	runtime.ReadMemStats(&after)
	ps := &pass{srv: srv, wall: end.Sub(start), mallocs: after.Mallocs - before.Mallocs}
	last := start
	for _, t := range append(sink.stamps, end) {
		ps.segments = append(ps.segments, t.Sub(last).Seconds())
		last = t
	}
	return ps, err
}

// check folds one served rep's findings into r.
func (p *plane) check(r *report, srv *serve.Server, sink *checkSink) {
	sink.verify(r, p.label(), p.packets())
	if v := srv.Stats().EpochViolations; v > 0 {
		r.fail(v, "%s: %d epoch violations", p.label(), v)
	}
	if p.served && sink.digest != p.digest {
		r.fail(1, "%s: verdict digest %x differs from the first rep's %x", p.label(), sink.digest, p.digest)
	}
	p.digest, p.served = sink.digest, true
	r.ops += sink.n
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// dataFamily measures the data family one plane at a time, so that its
// samples are spread between the other families' steps. A pass is timed
// in segments of segmentPackets; serve_pps adds up, segment by segment,
// the best time any rep took over it (see fastTime), so a pass is whole
// again from its quiet stretches in different reps. allocs_per_pkt adds
// up each plane's median allocation count.
type dataFamily struct {
	in        *dataInputs
	tr        *tracer
	r         *report
	next      int
	seconds   [][]float64   // per plane: Server.Run wall time of each rep
	segments  [][][]float64 // per plane, per rep: the pass's segment times
	mallocs   [][]float64   // per plane: heap allocations of each rep
	intervals []float64     // us between every 64th Emit, traced run only
	gc0       runtime.MemStats
}

// newDataFamily serves every plane once and, with all of these servers
// still referenced, reads heap_mb: the live heap after a forced GC over
// the live heap before the servers were built (the traces are resident
// in both readings).
func newDataFamily(in *dataInputs, tr *tracer, sp *span) *dataFamily {
	d := &dataFamily{in: in, tr: tr, r: newReport(),
		seconds: make([][]float64, len(in.planes)), segments: make([][][]float64, len(in.planes)),
		mallocs: make([][]float64, len(in.planes))}
	runtime.ReadMemStats(&d.gc0)
	base := liveHeap()
	servers := make([]*serve.Server, len(in.planes))
	for i := range in.planes {
		servers[i] = d.serve(i, sp)
	}
	held := int64(liveHeap()) - int64(base)
	d.r.set("heap_mb", float64(held)/(1<<20))
	if tr != nil {
		dataShape(d.r, in.planes, servers, held)
	}
	runtime.KeepAlive(servers)
	return d
}

// serve runs plane i's whole trace through a fresh server and records
// the pass.
func (d *dataFamily) serve(i int, sp *span) *serve.Server {
	p := d.in.planes[i]
	sink := p.sink()
	if d.tr != nil {
		last := time.Time{}
		sink.onEmit = func(seq int64, _ *serve.Outcome) {
			if seq%64 != 0 {
				return
			}
			now := time.Now()
			if !last.IsZero() {
				d.intervals = append(d.intervals, float64(now.Sub(last).Nanoseconds())/1e3)
			}
			last = now
		}
	}
	s := d.tr.begin("serve", "Server.Run "+p.label(), sp)
	ps, err := p.run(sink, nil)
	s.end()
	if err != nil {
		d.r.fail(p.packets(), "%s: %v", p.label(), err)
		return nil
	}
	p.check(d.r, ps.srv, sink)
	d.seconds[i] = append(d.seconds[i], ps.wall.Seconds())
	d.segments[i] = append(d.segments[i], ps.segments)
	d.mallocs[i] = append(d.mallocs[i], float64(ps.mallocs))
	return ps.srv
}

// step serves the next plane, round robin.
func (d *dataFamily) step(sp *span) {
	d.serve(d.next, sp)
	d.next = (d.next + 1) % len(d.in.planes)
}

// finish folds the passes into the family's report; the traced run
// then climbs the ladder over the same traces.
func (d *dataFamily) finish(sp *span) *report {
	r := d.r
	var pkts, secs, typical, mallocs float64
	for i, p := range d.in.planes {
		if len(d.seconds[i]) == 0 {
			return r // the plane failed; the failure is already recorded
		}
		pkts += float64(p.packets())
		secs += bestBySegment(d.segments[i])
		typical += median(d.seconds[i])
		mallocs += median(d.mallocs[i])
	}
	r.set("serve_pps", pkts/secs)
	r.set("allocs_per_pkt", mallocs/pkts)
	if d.tr == nil {
		return r
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	r.set("runtime.gc_count", float64(gc1.NumGC-d.gc0.NumGC))
	r.set("runtime.gc_pause_ms_total", float64(gc1.PauseTotalNs-d.gc0.PauseTotalNs)/1e6)
	sort.Float64s(d.intervals)
	r.setQ("serve.batch_us_p50", d.intervals, 0.50)
	r.setQ("serve.batch_us_p99", d.intervals, 0.99)
	r.setQ("serve.batch_us_p999", d.intervals, 0.999)
	r.setQ("serve.batch_us_max", d.intervals, 1)
	// A rung is one pass; it is compared with the median pass, not the
	// best one.
	r.merge(ladder(d.in.planes, d.in.probes, 1e9*typical/pkts, d.tr, sp))
	return r
}

// bestBySegment adds up, over the segments of one pass, the best time
// any of its reps took over that segment.
func bestBySegment(reps [][]float64) float64 {
	total := 0.0
	for j := range reps[0] {
		col := make([]float64, len(reps))
		for k := range reps {
			col[k] = reps[k][j]
		}
		total += fastTime(col)
	}
	return total
}

// dataShape reads the counters the planes already export after one
// served rep: which entries fired, how many packets fell to the
// implicit default drop, and how large the flow tables grew.
func dataShape(r *report, planes []*plane, servers []*serve.Server, held int64) {
	var fired, live, defaults, pkts, flows int64
	for i, srv := range servers {
		if srv == nil {
			continue
		}
		snap := srv.Snapshot()
		largest := 0
		for _, n := range snap.StateSizes {
			if n > largest {
				largest = n
			}
		}
		flows += int64(largest)
		if len(planes[i].ans) > 1 {
			continue
		}
		eng, err := planes[i].ans[0].CompiledEngine(core.Options{})
		if err != nil {
			continue
		}
		live += int64(eng.NumEntries())
		for _, h := range snap.EntryHits {
			if h > 0 {
				fired++
			}
		}
		defaults += snap.DefaultDrops
		pkts += snap.Packets
	}
	if live > 0 {
		r.set("dataplane.entry_coverage", float64(fired)/float64(live))
		r.set("dataplane.drop_share", float64(defaults)/float64(pkts))
	}
	if flows > 0 {
		r.set("dataplane.bytes_per_flow", float64(held)/float64(flows))
	}
}

// batcher is any of the four engine shapes behind one call.
type batcher struct {
	run      func(pkts []netpkt.Packet) error
	engine   *dataplane.Engine // set for the plain engine
	handoffs func() int64      // set for Sharded
}

// engine builds the plane's bare data plane the way serve does, from
// pristine state, through the packages' exported constructors.
func (p *plane) engine() (*batcher, error) {
	switch p.kind() {
	case "engine":
		eng, err := p.ans[0].CompiledEngine(core.Options{})
		if err != nil {
			return nil, err
		}
		outs := make([]dataplane.Output, 64)
		return &batcher{engine: eng, run: func(b []netpkt.Packet) error { return eng.ProcessBatch(b, outs) }}, nil
	case "sharded":
		sh, err := p.ans[0].ShardedEngine(p.spec.shards, core.Options{})
		if err != nil {
			return nil, err
		}
		outs := make([]dataplane.Output, 64)
		return &batcher{handoffs: sh.Handoffs, run: func(b []netpkt.Packet) error { return sh.ProcessBatch(b, outs) }}, nil
	case "chain":
		eng, err := dataplane.CompileChain(p.stages)
		if err != nil {
			return nil, err
		}
		outs := make([]dataplane.ChainOutput, 64)
		return &batcher{run: func(b []netpkt.Packet) error { return eng.ProcessBatch(b, outs) }}, nil
	default:
		sh, err := dataplane.NewShardedChain(p.stages, p.spec.shards)
		if err != nil {
			return nil, err
		}
		outs := make([]dataplane.ChainOutput, 64)
		return &batcher{run: func(b []netpkt.Packet) error { return sh.ProcessBatch(b, outs) }}, nil
	}
}

// pump pulls n packets from the plane's source in batches of 64, as the
// serve loop does, and hands each batch to fn (nil: the source alone).
func (p *plane) pump(n int64, src *serve.TraceSource, fn func([]netpkt.Packet) error) error {
	batch := make([]netpkt.Packet, 0, 64)
	for left := n; left > 0; {
		batch = batch[:0]
		for len(batch) < 64 && left > 0 {
			var pkt netpkt.Packet
			if ok, _ := src.Next(&pkt); !ok {
				return fmt.Errorf("source ran dry with %d packets to go", left)
			}
			batch = append(batch, pkt)
			left--
		}
		if fn != nil {
			if err := fn(batch); err != nil {
				return err
			}
		}
	}
	return nil
}

// ladderAcc accumulates the ladder's per-layer figures over planes:
// per-packet costs are weighted by packets, single calls average over
// the planes that made them.
type ladderAcc struct {
	sums        map[string][2]float64 // total, weight
	entries     int
	depth       int
	handoffs    int64
	shardedPkts int64
}

func (a *ladderAcc) perPkt(name string, d time.Duration, pkts int64) {
	s := a.sums[name]
	a.sums[name] = [2]float64{s[0] + float64(d.Nanoseconds()), s[1] + float64(pkts)}
}

func (a *ladderAcc) us(name string, d time.Duration) {
	s := a.sums[name]
	a.sums[name] = [2]float64{s[0] + float64(d.Nanoseconds())/1e3, s[1] + 1}
}

// ladder is the traced run's data-path ladder. Every rung is one span
// over the same trace; a layer's self time is its rung minus the rung
// below. source + engine + loop sum to the Server rung, which is
// compared with the separately served rep as ladder_residual_pct.
//
//	source   TraceSource.Next alone
//	bare     + engine with SetSink(nil)              (full planes)
//	engine   + engine as compiled, telemetry sink on
//	server   serve.Server with the checking sink     (the serve_pps configuration)
//	obsrv    server with Config.Obs set              (full planes)
//
// own are the workload's planes; probes are measured for the full-plane
// and the engine-shape figures only and stay out of the sums that
// explain serve_pps.
func ladder(own, probes []*plane, servedNsPkt float64, tr *tracer, parent *span) *report {
	r := newReport()
	acc := &ladderAcc{sums: map[string][2]float64{}}
	for _, p := range own {
		if err := ladderPlane(p, true, acc, r, tr, parent); err != nil {
			r.fail(1, "%s ladder: %v", p.label(), err)
		}
	}
	for _, p := range probes {
		if err := ladderPlane(p, false, acc, r, tr, parent); err != nil {
			r.fail(1, "%s ladder: %v", p.label(), err)
		}
	}
	for name, s := range acc.sums {
		if name != "server" && s[1] > 0 {
			r.set(name, s[0]/s[1])
		}
	}
	if s := acc.sums["server"]; s[1] > 0 && servedNsPkt > 0 {
		r.set("ladder_residual_pct", 100*math.Abs(s[0]/s[1]-servedNsPkt)/servedNsPkt)
	}
	if acc.entries > 0 {
		r.set("dataplane.entries", float64(acc.entries))
		r.set("dataplane.tree_depth", float64(acc.depth))
	}
	if acc.shardedPkts > 0 {
		r.set("dataplane.handoffs_per_pkt", float64(acc.handoffs)/float64(acc.shardedPkts))
	}
	return r
}

func ladderPlane(p *plane, own bool, acc *ladderAcc, r *report, tr *tracer, parent *span) error {
	n := p.packets()
	ps := tr.begin("harness", "ladder "+p.label(), parent)
	defer ps.end()

	src, err := tr.call("serve", "rung source", ps, func() error { return p.pump(n, p.source(), nil) })
	if err != nil {
		return err
	}

	var bare time.Duration
	if p.spec.full {
		b, err := p.engine()
		if err != nil {
			return err
		}
		b.engine.SetSink(nil)
		if bare, err = tr.call("dataplane", "rung engine, no telemetry", ps, func() error { return p.pump(n, p.source(), b.run) }); err != nil {
			return err
		}
	}

	b, err := p.engine()
	if err != nil {
		return err
	}
	es := tr.begin("dataplane", "rung engine", ps)
	feed := p.source()
	for pass := 0; pass < p.spec.passes; pass++ {
		d, err := tr.call("dataplane", fmt.Sprintf("pass %d", pass+1), es, func() error {
			return p.pump(int64(len(p.trace)), feed, b.run)
		})
		if err != nil {
			es.end()
			return err
		}
		if own && p.spec.passes == 2 {
			name := []string{"dataplane.insert_ns_pkt", "dataplane.lookup_ns_pkt"}[pass]
			acc.perPkt(name, d-src/2, int64(len(p.trace)))
		}
	}
	eng := es.end()
	if b.handoffs != nil {
		acc.handoffs += b.handoffs()
		acc.shardedPkts += n
	}

	sink := p.sink()
	var served *pass
	if _, err = tr.call("serve", "rung server", ps, func() (err error) {
		served, err = p.run(sink, nil)
		return err
	}); err != nil {
		return err
	}
	p.check(r, served.srv, sink)
	srvDur := served.wall

	if own {
		acc.perPkt("serve.source_ns_pkt", src, n)
		acc.perPkt("dataplane.engine_ns_pkt", eng-src, n)
		acc.perPkt("serve.loop_ns_pkt", srvDur-eng, n)
		acc.perPkt("server", srvDur, n)
	}
	if k := p.kind(); k != "engine" {
		acc.perPkt("dataplane."+k+"_ns_pkt", eng-src, n)
	}
	if !p.spec.full {
		return nil
	}
	acc.perPkt("dataplane.engine_ns_pkt."+p.spec.name, eng-src, n)
	acc.perPkt("telemetry.sink_ns_pkt", eng-bare, n)
	osink := p.sink()
	var observed *pass
	if _, err = tr.call("obsrv", "rung server, Config.Obs set", ps, func() (err error) {
		observed, err = p.run(osink, &obsrv.Options{})
		return err
	}); err != nil {
		return err
	}
	acc.perPkt("obsrv.observe_ns_pkt", observed.wall-srvDur, n)
	return layerCalls(p, b.engine, acc, tr, ps)
}

// layerCalls times the single calls into dataplane, telemetry, obsrv
// and serve that are not per-packet rungs, on a full plane whose engine
// eng has just processed the trace.
func layerCalls(p *plane, eng *dataplane.Engine, acc *ladderAcc, tr *tracer, ps *span) error {
	an := p.ans[0]
	config, state, err := an.ConfigAndState(nil)
	if err != nil {
		return err
	}
	d, err := tr.call("dataplane", "Compile", ps, func() error { _, err := dataplane.Compile(an.Model, config, state); return err })
	if err != nil {
		return err
	}
	acc.us("dataplane.compile_us", d)
	// A classification error only means "not shardable"; the time is the metric.
	d, _ = tr.call("dataplane", "Classify", ps, func() error { _, err := dataplane.Classify(an.Model, config, state); return err })
	acc.us("dataplane.classify_us", d)
	d, _ = tr.call("dataplane", "Engine.StateView", ps, func() error { eng.StateView(8); return nil })
	acc.us("dataplane.stateview_us", d)
	d, _ = tr.call("telemetry", "Engine.Telemetry", ps, func() error { eng.Telemetry(); return nil })
	acc.us("telemetry.snapshot_us", d)
	acc.entries += eng.NumEntries()
	if dep := eng.TreeDepth(); dep > acc.depth {
		acc.depth = dep
	}

	col := obsrv.NewCollector([]obsrv.StageInfo{{Name: p.spec.name, Model: an.Model, Config: config, Init: state}}, obsrv.Options{})
	for i := 0; i < len(p.trace) && i < 8192; i++ {
		col.Observe(&p.trace[i], false, -1)
	}
	d, _ = tr.call("obsrv", "Collector.Snapshot", ps, func() error { col.Snapshot(1, p.spec.name); return nil })
	acc.us("obsrv.snapshot_us", d)

	ws := serve.NewWriterSink(io.Discard)
	d, err = tr.call("serve", "WriterSink.Emit", ps, func() error {
		for i := range p.ref {
			if err := ws.Emit(int64(i+1), &p.trace[i], &serve.Outcome{Verdict: p.ref[i]}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	acc.perPkt("serve.writer_sink_ns_pkt", d, int64(len(p.ref)))
	return nil
}
