package main

import (
	"fmt"
	"path/filepath"
	"time"

	"nfactor/internal/core"
	"nfactor/internal/lang"
	"nfactor/internal/lint"
	"nfactor/internal/model"
	"nfactor/internal/netpkt"
	"nfactor/internal/nfs"
	"nfactor/internal/solver"
	"nfactor/internal/symexec"
	"nfactor/internal/value"
	"nfactor/internal/verify"
	"nfactor/internal/workload"
)

// The control family is the paper's own pipeline and its §4
// verification application. No packet-path code runs. Every round
// starts from a cold solver cache.

// topology is one verified network with its known answer.
type topology struct {
	name string
	net  *verify.SymNetwork
	invs []verify.Invariant
	want []verify.ViolationKind // kinds of violation the check must find; empty: clean
}

type controlInputs struct {
	sources  map[string]string // NFLang text per corpus NF
	snort    *core.Analysis    // for the unsliced program and its variable classes
	topos    []topology
	diffPkts []netpkt.Packet
}

func prepControl(seed int64, diffN int) (*controlInputs, error) {
	in := &controlInputs{sources: map[string]string{}}
	for _, name := range corpusNFs {
		nf, err := nfs.Load(name)
		if err != nil {
			return nil, err
		}
		in.sources[name] = nf.Source
	}
	in.diffPkts = workload.New(seed).RandomTrace(diffN)

	analyzed := map[string]*core.Analysis{}
	resolve := func(name string) (*model.Model, map[string]value.Value, map[string]value.Value, error) {
		an := analyzed[name]
		if an == nil {
			var err error
			if an, err = analyzeNF(name); err != nil {
				return nil, nil, nil, err
			}
			analyzed[name] = an
		}
		config, state, err := an.ConfigAndState(nil)
		return an.Model, config, state, err
	}
	files := []struct {
		name string
		want []verify.ViolationKind
	}{
		{"protected", nil},
		{"breach", []verify.ViolationKind{verify.VIsolationBreach}}, // NFL401
		{"loop", []verify.ViolationKind{verify.VForwardingLoop}},    // NFL402
	}
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		tf, err := verify.LoadTopo(filepath.Join(root, "internal", "verify", "testdata", f.name+".json"))
		if err != nil {
			return nil, err
		}
		t, err := newTopology(f.name, tf, resolve)
		if err != nil {
			return nil, err
		}
		t.want = f.want
		in.topos = append(in.topos, t)
	}
	ft, err := newTopology("fattree16", fatTree(16), resolve)
	if err != nil {
		return nil, err
	}
	in.topos = append(in.topos, ft)
	if _, _, _, err := resolve("snortlite"); err != nil {
		return nil, err
	}
	in.snort = analyzed["snortlite"]
	return in, nil
}

func newTopology(name string, tf *verify.TopoFile, resolve verify.NFResolver) (topology, error) {
	invs, err := tf.ParsedInvariants()
	if err != nil {
		return topology{}, fmt.Errorf("%s: %w", name, err)
	}
	net, err := tf.Sym(resolve)
	if err != nil {
		return topology{}, fmt.Errorf("%s: %w", name, err)
	}
	return topology{name: name, net: net, invs: invs}, nil
}

// fatTree builds a two-level fat-tree of n hosts: n/2 edge switches
// with two hosts each and two cores, destination-routed with remote
// pods split across the cores by parity — except edge 0, whose whole
// uplink passes an inline snortlite, so waypoint(h0,h<n-1>,ids) holds
// while the reverse path bypasses it. All four invariants hold.
func fatTree(n int) *verify.TopoFile {
	ip := func(i int) string { return fmt.Sprintf("10.0.%d.%d", i/2, i%2+1) }
	host := func(i int) string { return fmt.Sprintf("h%d", i) }
	edge := func(e int) string { return fmt.Sprintf("e%d", e) }
	last := host(n - 1)
	topo := &verify.TopoFile{
		NFs: []verify.TopoNF{{Name: "ids", NF: "snortlite"}},
		Invariants: []string{
			fmt.Sprintf("reach(h0,%s)", last),
			fmt.Sprintf("reach(%s,h0)", last),
			fmt.Sprintf("waypoint(h0,%s,ids)", last),
			"loopfree",
		},
	}
	for i := 0; i < n; i++ {
		topo.Hosts = append(topo.Hosts, verify.TopoHost{Name: host(i), IP: ip(i)})
		topo.Links = append(topo.Links,
			verify.TopoLink{From: host(i), Iface: "eth0", To: edge(i / 2)},
			verify.TopoLink{From: edge(i / 2), Iface: fmt.Sprintf("p%d", i%2), To: host(i)})
	}
	for e := 0; e < n/2; e++ {
		routes := map[string]string{}
		for j := 0; j < n; j++ {
			switch {
			case j/2 == e:
				routes[ip(j)] = fmt.Sprintf("p%d", j%2)
			case e == 0:
				routes[ip(j)] = "up"
			default:
				routes[ip(j)] = fmt.Sprintf("u%d", j/2%2)
			}
		}
		topo.Switches = append(topo.Switches, verify.TopoSwitch{Name: edge(e), Routes: routes})
		if e > 0 {
			topo.Links = append(topo.Links,
				verify.TopoLink{From: edge(e), Iface: "u0", To: "c0"},
				verify.TopoLink{From: edge(e), Iface: "u1", To: "c1"})
		}
	}
	topo.Links = append(topo.Links,
		verify.TopoLink{From: "e0", Iface: "up", To: "ids"},
		verify.TopoLink{From: "ids", Iface: "eth1", To: "c0"})
	for c := 0; c < 2; c++ {
		routes := map[string]string{}
		for j := 0; j < n; j++ {
			routes[ip(j)] = fmt.Sprintf("d%d", j/2)
		}
		name := fmt.Sprintf("c%d", c)
		topo.Switches = append(topo.Switches, verify.TopoSwitch{Name: name, Routes: routes})
		for e := 0; e < n/2; e++ {
			topo.Links = append(topo.Links, verify.TopoLink{From: name, Iface: fmt.Sprintf("d%d", e), To: edge(e)})
		}
	}
	return topo
}

// controlFamily measures the control family one round at a time. The
// phase that has had the least time goes next, so that each gets the
// same share of the family's time, spread over the whole run, whatever
// its rounds cost.
//
//	synth    lang.Parse -> normalize -> core.Analyze (Lint on) -> CompiledEngine, all 8 NFs
//	verify   SymNetwork.Check of every invariant of the four topologies
//	explore  symexec.Run on the unsliced snortlite, maxPaths paths (traced run only)
//
// All three run on one worker. Two need both cores quiet at once for
// the whole call, which the shared sandbox grants to a round in ten,
// and the best round of a run then says more about the host than about
// the program. The traced run's first rounds take the two-worker
// figures beside them (symexec.paths_per_s_w2, verify.check_ms_w2).
//
// Each metric adds up, item by item (per NF, per topology; exploration
// is one item), the best over the rounds (see fastTime).
type controlFamily struct {
	r      *report
	phases []*controlPhase
}

type controlPhase struct {
	metric string
	fast   func([]float64) float64 // fastTime or fastRate
	round  func(sp *span, first bool) ([]float64, error)
	rounds [][]float64 // per round, one value per item
	used   time.Duration
	failed bool
}

func newControlFamily(in *controlInputs, maxPaths int, tr *tracer) *controlFamily {
	c := &controlFamily{r: newReport()}
	c.phases = []*controlPhase{
		{metric: "synth_ms", fast: fastTime, round: func(sp *span, first bool) ([]float64, error) { return synthRound(in, c.r, first, tr, sp) }},
		{metric: "verify_ms", fast: fastTime, round: func(sp *span, first bool) ([]float64, error) { return verifyRound(in, c.r, first, tr, sp) }},
	}
	if tr != nil {
		c.phases = append(c.phases, &controlPhase{metric: "symexec.paths_per_s_w1", fast: fastRate,
			round: func(sp *span, first bool) ([]float64, error) { return exploreRound(in, maxPaths, c.r, first, tr, sp) }})
	}
	return c
}

// step runs one round of the phase furthest behind; the first step runs
// one round of each, so that however short the run, every phase is
// measured.
func (c *controlFamily) step(sp *span) {
	if len(c.phases[0].rounds) == 0 && !c.phases[0].failed {
		for _, ph := range c.phases {
			c.round(ph, sp)
		}
		return
	}
	next := c.phases[0]
	for _, ph := range c.phases[1:] {
		if ph.used < next.used {
			next = ph
		}
	}
	c.round(next, sp)
}

func (c *controlFamily) round(ph *controlPhase, sp *span) {
	if ph.failed {
		ph.used += time.Hour // never the furthest behind again
		return
	}
	c.r.ops++
	t0 := time.Now()
	v, err := ph.round(sp, len(ph.rounds) == 0)
	ph.used += time.Since(t0)
	if err != nil {
		c.r.fail(1, "%s: %v", ph.metric, err)
		ph.failed = true
		return
	}
	ph.rounds = append(ph.rounds, v)
}

func (c *controlFamily) finish(*span) *report {
	for _, ph := range c.phases {
		if len(ph.rounds) == 0 {
			continue
		}
		total := 0.0
		for i := range ph.rounds[0] {
			col := make([]float64, len(ph.rounds))
			for j := range ph.rounds {
				col[j] = ph.rounds[j][i]
			}
			total += ph.fast(col)
		}
		c.r.set(ph.metric, total)
	}
	return c.r
}

// synthRound synthesizes and compiles the whole corpus from source and
// returns the wall time of each NF in ms. The first round also checks every model
// against its program (DiffTest must find 0 mismatches) and, traced,
// takes the per-phase layer figures.
func synthRound(in *controlInputs, r *report, first bool, tr *tracer, sp *span) ([]float64, error) {
	ans := make([]*core.Analysis, len(corpusNFs))
	ms := make([]float64, len(corpusNFs))
	for i, name := range corpusNFs {
		var err error
		d, _ := tr.call("core", "synthesize "+name, sp, func() error {
			var nf *nfs.NF
			if nf, err = nfs.FromSource(name, in.sources[name]); err != nil {
				return err
			}
			if ans[i], err = core.Analyze(name, nf.Prog, core.Options{Lint: true, Workers: 1}); err != nil {
				return err
			}
			_, err = ans[i].CompiledEngine(core.Options{})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if lint.HasErrors(ans[i].Diagnostics) {
			return nil, fmt.Errorf("%s: lint errors:\n%s", name, lint.Render(ans[i].Diagnostics))
		}
		ms[i] = us(d) / 1e3
		if first && tr != nil {
			r.set("core.analyze_us."+name, us(d))
		}
	}
	if !first {
		return ms, nil
	}

	var diff time.Duration
	for i, name := range corpusNFs {
		d, err := tr.call("core", "DiffTest "+name, sp, func() error {
			res, err := ans[i].DiffTest(in.diffPkts, core.Options{})
			if err == nil && res.Mismatches > 0 {
				err = fmt.Errorf("%d of %d random packets differ between program and model: %s", res.Mismatches, res.Trials, res.FirstDiff)
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		diff += d
	}
	if tr != nil {
		r.set("core.difftest_us", us(diff))
		synthLayers(in, ans, r, tr, sp)
	}
	return ms, nil
}

// synthLayers takes the per-package figures of one synthesized corpus:
// timings from spans around direct calls, counts from the counters the
// Analysis already exports.
func synthLayers(in *controlInputs, ans []*core.Analysis, r *report, tr *tracer, sp *span) {
	var parse, lintD, equiv, sliceT, seT time.Duration
	var paths, entries int
	var sat solver.CacheStats
	for i, name := range corpusNFs {
		an := ans[i]
		d, _ := tr.call("lang", "Parse "+name, sp, func() error { _, err := lang.Parse(in.sources[name]); return err })
		parse += d
		d, _ = tr.call("lint", "Source+Model "+name, sp, func() error {
			lint.Source(an.Original, name)
			lint.Model(an.Model, lint.ModelOptions{})
			return nil
		})
		lintD += d
		d, err := tr.call("core", "CheckPathEquivalence "+name, sp, func() error {
			rep, err := an.CheckPathEquivalence(core.Options{})
			if err == nil && !rep.Equivalent() {
				err = fmt.Errorf("model and program path sets differ")
			}
			return err
		})
		if err != nil {
			r.fail(1, "%s: %v", name, err)
		}
		equiv += d
		sliceT += an.Metrics.SliceTime
		seT += an.Metrics.SETimeSlice
		paths += an.Metrics.EPSlice
		entries += len(an.Model.Entries)
		cs := an.Cache.Stats()
		sat.SatHits += cs.SatHits
		sat.SatMisses += cs.SatMisses
	}
	r.set("lang.parse_us", us(parse))
	r.set("lint.us", us(lintD))
	r.set("core.equiv_us", us(equiv))
	r.set("slice.time_us", us(sliceT))
	r.set("symexec.slice_us", us(seT))
	r.set("symexec.paths", float64(paths))
	r.set("model.entries", float64(entries))
	r.set("solver.sat_queries", float64(sat.SatHits+sat.SatMisses))
	r.set("solver.sat_hit_rate", sat.SatHitRate())
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// exploreRound symbolically executes the unsliced snortlite — the
// program whose path explosion Table 2 measures — up to maxPaths paths
// and returns paths per second on one worker; the first round also
// takes the two-worker rate. The path budget must be exhausted: that is
// the known answer.
func exploreRound(in *controlInputs, maxPaths int, r *report, first bool, tr *tracer, sp *span) ([]float64, error) {
	an := in.snort
	explore := func(w int) (float64, error) {
		opts := symexec.Options{
			MaxPaths: maxPaths, Workers: w, Cache: solver.NewCache(),
			ConfigVars: map[string]bool{}, StateVars: map[string]bool{},
		}
		for _, v := range an.Vars.CfgVars() {
			opts.ConfigVars[v] = true
		}
		for _, v := range append(an.Vars.OISVars(), an.Vars.LogVars()...) {
			opts.StateVars[v] = true
		}
		var res *symexec.Result
		d, err := tr.call("symexec", fmt.Sprintf("Run unsliced snortlite, %d workers", w), sp, func() (err error) {
			res, err = symexec.Run(an.Analyzer.Prog, an.Entry, opts)
			return err
		})
		if err != nil {
			return 0, err
		}
		if len(res.Paths) != maxPaths || !res.Exhausted {
			return 0, fmt.Errorf("explored %d paths (exhausted=%v), want the budget of %d used up", len(res.Paths), res.Exhausted, maxPaths)
		}
		return float64(len(res.Paths)) / d.Seconds(), nil
	}
	rate, err := explore(1)
	if err == nil && first {
		var w2 float64
		if w2, err = explore(workers); err == nil {
			r.set("symexec.paths_per_s_w2", w2)
		}
	}
	return []float64{rate}, err
}

// verifyRound checks all invariants of the four topologies on one
// worker, each on a cold cache, requires the known answer of each, and
// returns the wall time of each in ms. The traced run's first round also
// takes the two-worker time of all four.
func verifyRound(in *controlInputs, r *report, first bool, tr *tracer, sp *span) ([]float64, error) {
	ms := make([]float64, len(in.topos))
	var explorations int
	var sat solver.CacheStats
	check := func(t *topology, w int, cache *solver.Cache) (*verify.Report, time.Duration, error) {
		var rep *verify.Report
		d, err := tr.call("verify", fmt.Sprintf("Check %s, %d workers", t.name, w), sp, func() (err error) {
			rep, err = t.net.Check(t.invs, verify.ExploreOpts{Workers: w, Cache: cache})
			return err
		})
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", t.name, err)
		}
		return rep, d, t.answer(rep)
	}
	var w2 time.Duration
	for i := range in.topos {
		t := &in.topos[i]
		cache := solver.NewCache()
		rep, d, err := check(t, 1, cache)
		if err != nil {
			return nil, err
		}
		ms[i] = us(d) / 1e3
		if first && tr != nil {
			_, d2, err := check(t, workers, solver.NewCache())
			if err != nil {
				return nil, err
			}
			w2 += d2
		}
		explorations += rep.Explorations
		cs := cache.Stats()
		sat.SatHits += cs.SatHits
		sat.SatMisses += cs.SatMisses
		if first && tr != nil {
			r.set("verify.check_ms."+t.name, ms[i])
		}
	}
	if first && tr != nil {
		r.set("verify.check_ms_w2", us(w2)/1e3)
		r.set("verify.explorations", float64(explorations))
		r.set("verify.sat_hit_rate", sat.SatHitRate())
	}
	return ms, nil
}

// answer compares a report's violation kinds with the topology's known
// answer.
func (t *topology) answer(rep *verify.Report) error {
	got := map[verify.ViolationKind]bool{}
	for _, v := range rep.Violations {
		got[v.Kind] = true
	}
	ok := len(got) == len(t.want)
	for _, k := range t.want {
		ok = ok && got[k]
	}
	if !ok {
		return fmt.Errorf("%s: verdict %v, want %v", t.name, rep.Violations, t.want)
	}
	return nil
}
