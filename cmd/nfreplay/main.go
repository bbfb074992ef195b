// Command nfreplay replays a packet trace through an NF — the original
// program, its synthesized model, the compiled data-plane engine, the
// sharded engine, or reference-vs-candidate side by side (-side diff,
// the §5 differential methodology on operator-supplied traffic).
//
// Usage:
//
//	nfreplay -corpus lb -trace flows.txt [-side program|model|compiled|sharded|diff]
//	         [-shards N] [-explain] [-telemetry] [-prom metrics.prom]
//	         [-fast] [-bench] [-cpuprofile cpu.out] [-memprofile mem.out]
//	nfreplay -chain firewall,snortlite,lb -trace flows.txt [-shards N] [-telemetry]
//	nfreplay (-corpus NAME | -file prog.nfl | -chain a,b) -serve
//	         (-trace flows.txt [-loop] | -gen N [-seed S] | -listen host:port)
//	         [-shards N] [-batch N] [-window N] [-rate PPS]
//	         [-http host:port] [-prom file] [-prom-interval D]
//	         [-swap-after N] [-swap-allow-change] [-telemetry]
//
// -chain replays the trace through the fused service-chain data plane
// (dataplane.CompileChain): one engine for the whole chain, per-packet
// verdicts showing where each packet died or what the final stage
// emitted. With -shards N the chain runs flow-sharded when every
// stage's flow keys co-hash (falling back loudly otherwise);
// -telemetry prints per-stage counters afterwards.
//
// -shards N picks the shard count for -side sharded (default
// GOMAXPROCS). When the model's state has no sharding lowering, the
// replay reports *why* on stderr — naming the blocking state variable —
// and falls back to the single compiled engine instead of failing.
//
// -explain prints the provenance trace of every packet: which guards
// were evaluated with what outcome, which entry fired, what was sent
// and how the state changed.
// -telemetry prints the always-on counters after the replay — verdict
// and per-entry hit counts, latency quantiles, state sizes — plus the
// model annotated with hit counters and a dead-entry report that
// cross-checks never-hit entries against symbolic reachability.
// -prom FILE additionally writes the snapshot in Prometheus text
// exposition format.
// -fast replays the model side through the compiled engine instead of
// the reference interpreter (identical verdicts, much faster).
// -bench times the trace through BOTH the reference interpreter and the
// compiled engine and reports pkts/sec and ns/pkt for each.
//
// -serve runs the live serving daemon instead of a one-shot replay:
// packets come from the trace file (looping with -loop), from -gen N
// synthetic workload packets, or from UDP datagrams (-listen); verdict
// lines go to stdout, diagnostics to stderr. SIGHUP re-synthesizes the
// NF from its current source and hot-swaps the engine generation under
// load — the swap applies only at a batch barrier (a batch is whatever
// has already arrived, up to -batch: the loop never waits for one to
// fill, so there is no flush interval to set), carries compatible
// state over, and is refused (loudly, naming the first divergence) if
// the candidate's behavior diverges from the serving generation on the
// live traffic window, unless -swap-allow-change. -swap-after N queues
// one such swap after N packets (a self-test of the swap path).
// SIGINT/SIGTERM drain and print the serving summary.
//
// -http ADDR embeds the observability server on ADDR: /metrics (live
// Prometheus scrape: serve stats, engine telemetry, pipeline perf
// counters, NFL103 gap-hit and drift gauges), /state (per-variable
// flow-state inspector, quiesced at a batch barrier), /coverage
// (entry-hit coverage with staleness candidates and gap hits), /swaps
// (the generation-swap audit trail) and /debug/pprof/. With -serve,
// -prom FILE is rewritten atomically every -prom-interval (default 2s)
// with the same payload /metrics serves, so a file-based scraper works
// alongside — or instead of — the HTTP endpoint. -rate PPS paces the
// source so a bounded trace stands in for live traffic.
//
// Trace format (one packet per line, # comments allowed):
//
//	tcp 10.0.0.1:1234 > 3.3.3.3:80 [S] ttl=64 len=0 iface=eth0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"nfactor"
	"nfactor/internal/core"
	"nfactor/internal/dataplane"
	"nfactor/internal/telemetry"
)

func main() {
	corpus := flag.String("corpus", "", "corpus NF to replay against")
	file := flag.String("file", "", "NFLang source file to replay against")
	chainSpec := flag.String("chain", "", "comma-separated NF order: replay through the fused chain data plane")
	traceFile := flag.String("trace", "", "trace file (- for stdin)")
	side := flag.String("side", "diff", "program | model | compiled | sharded | diff")
	shards := flag.Int("shards", 0, "shard count for -side sharded (0 = GOMAXPROCS)")
	explain := flag.Bool("explain", false, "print each packet's provenance trace (guards, entry, state changes)")
	telemetry := flag.Bool("telemetry", false, "print counters, latency quantiles, the hit-annotated model and dead entries after the replay")
	promFile := flag.String("prom", "", "write the telemetry snapshot in Prometheus text format to this file")
	fast := flag.Bool("fast", false, "replay the model through the compiled data-plane engine")
	bench := flag.Bool("bench", false, "time the trace through the reference interpreter and the compiled engine")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the replay to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile after the replay to this file")
	serveMode := flag.Bool("serve", false, "run the live serving daemon (SIGHUP hot-swaps a re-synthesized engine)")
	loop := flag.Bool("loop", false, "with -serve -trace: loop the trace instead of draining it once")
	genPkts := flag.Int64("gen", 0, "with -serve: serve N synthetic workload packets instead of a trace")
	seed := flag.Int64("seed", 1, "with -serve -gen: workload seed")
	listen := flag.String("listen", "", "with -serve: serve packets from UDP datagrams on this address")
	batch := flag.Int("batch", 0, "with -serve: maximum batch; a batch is what has already arrived, so no packet waits for it to fill (0 = default 64)")
	window := flag.Int("window", 0, "with -serve: live-traffic window gating swaps (0 = default)")
	swapAfter := flag.Int64("swap-after", 0, "with -serve: re-synthesize and hot-swap once after N packets")
	swapAllow := flag.Bool("swap-allow-change", false, "with -serve: apply swaps even when behavior diverges on the live window")
	httpAddr := flag.String("http", "", "with -serve: embedded observability server address (/metrics /state /coverage /swaps /debug/pprof/)")
	rate := flag.Float64("rate", 0, "with -serve: pace the source to this many packets per second (0 = unpaced)")
	promEvery := flag.Duration("prom-interval", 2*time.Second, "with -serve -prom: atomic rewrite interval for the metrics file")
	flag.Parse()

	if *serveMode {
		name, rebuild := resynther(*corpus, *file, *chainSpec, *shards)
		if rebuild == nil {
			fmt.Fprintln(os.Stderr, "usage: nfreplay (-corpus NAME | -file prog.nfl | -chain a,b) -serve (-trace file [-loop] | -gen N [-seed S] | -listen addr) [-shards N] [-batch N] [-window N] [-rate PPS] [-http addr] [-prom file] [-prom-interval D] [-swap-after N] [-swap-allow-change] [-telemetry]")
			os.Exit(2)
		}
		err := runServe(serveOpts{
			name: name, rebuild: rebuild,
			traceFile: *traceFile, loop: *loop,
			genPkts: *genPkts, seed: *seed, listen: *listen,
			batch: *batch, window: *window, rate: *rate,
			swapAfter: *swapAfter, swapAllow: *swapAllow,
			telemetry: *telemetry, promFile: *promFile,
			promEvery: *promEvery, httpAddr: *httpAddr,
		})
		if err != nil {
			fatal(err)
		}
		return
	}

	if *chainSpec != "" {
		if *traceFile == "" || *corpus != "" || *file != "" {
			fmt.Fprintln(os.Stderr, "usage: nfreplay -chain a,b,c -trace file [-shards N] [-telemetry]")
			os.Exit(2)
		}
		if err := runChain(*chainSpec, *traceFile, *shards, *telemetry); err != nil {
			fatal(err)
		}
		return
	}
	if (*corpus == "") == (*file == "") || *traceFile == "" {
		fmt.Fprintln(os.Stderr, "usage: nfreplay (-corpus NAME | -file prog.nfl) -trace file [-side program|model|compiled|sharded|diff] [-explain] [-telemetry] [-prom file] [-fast] [-bench]")
		os.Exit(2)
	}

	var res *nfactor.Result
	var err error
	name := *corpus
	if *corpus != "" {
		res, err = nfactor.AnalyzeCorpus(*corpus, nfactor.Options{})
	} else {
		name = *file
		data, rerr := os.ReadFile(*file)
		if rerr != nil {
			fatal(rerr)
		}
		res, err = nfactor.AnalyzeSource(*file, string(data), nfactor.Options{})
	}
	if err != nil {
		fatal(err)
	}

	in := os.Stdin
	if *traceFile != "-" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	trace, err := nfactor.ParseTrace(in)
	if err != nil {
		fatal(err)
	}
	if len(trace) == 0 {
		fatal(fmt.Errorf("empty trace"))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *bench {
		if err := runBench(res, trace); err != nil {
			fatal(err)
		}
	} else {
		if err := runReplay(res, name, trace, *side, *shards, *fast, *explain, *telemetry, *promFile); err != nil {
			fatal(err)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// resynther returns the NF's display name and a closure that
// re-synthesizes it from scratch — the serving daemon calls it once for
// the initial generation and again on every swap request, so a SIGHUP
// picks up whatever the source (file, corpus, chain spec) says *now*.
// Alongside the candidate, the closure returns an appender for the
// synthesis pipeline's perf counters (nil for chains), so /metrics and
// the periodic -prom file always report the perf of the *serving*
// generation's synthesis run.
func resynther(corpus, file, chainSpec string, shards int) (string, func() (nfactor.ServeCandidate, promAppender, error)) {
	switch {
	case chainSpec != "" && corpus == "" && file == "":
		names := splitChain(chainSpec)
		name := strings.Join(names, "->")
		return name, func() (nfactor.ServeCandidate, promAppender, error) {
			cr, err := nfactor.AnalyzeChain(names, nfactor.Options{})
			if err != nil {
				return nfactor.ServeCandidate{}, nil, err
			}
			return cr.ServeCandidate(shards), nil, nil
		}
	case corpus != "" && file == "" && chainSpec == "":
		return corpus, func() (nfactor.ServeCandidate, promAppender, error) {
			res, err := nfactor.AnalyzeCorpus(corpus, nfactor.Options{})
			if err != nil {
				return nfactor.ServeCandidate{}, nil, err
			}
			perf := func(w io.Writer) error { return res.WritePerfPrometheus(w, corpus) }
			return res.ServeCandidate(shards), perf, nil
		}
	case file != "" && corpus == "" && chainSpec == "":
		return file, func() (nfactor.ServeCandidate, promAppender, error) {
			data, err := os.ReadFile(file)
			if err != nil {
				return nfactor.ServeCandidate{}, nil, err
			}
			res, err := nfactor.AnalyzeSource(file, string(data), nfactor.Options{})
			if err != nil {
				return nfactor.ServeCandidate{}, nil, err
			}
			perf := func(w io.Writer) error { return res.WritePerfPrometheus(w, file) }
			return res.ServeCandidate(shards), perf, nil
		}
	}
	return "", nil
}

// promAppender appends extra Prometheus series to a scrape payload.
type promAppender = func(w io.Writer) error

type serveOpts struct {
	name      string
	rebuild   func() (nfactor.ServeCandidate, promAppender, error)
	traceFile string
	loop      bool
	genPkts   int64
	seed      int64
	listen    string
	batch     int
	window    int
	rate      float64
	swapAfter int64
	swapAllow bool
	telemetry bool
	promFile  string
	promEvery time.Duration
	httpAddr  string
}

// runServe is the -serve daemon: verdict lines to stdout, everything
// operational (swap reports, the final summary, telemetry) to stderr.
func runServe(o serveOpts) error {
	cand, perf, err := o.rebuild()
	if err != nil {
		return err
	}

	// The perf appender tracks the SERVING generation: a hot-swap's
	// candidate carries its own synthesis perf counters, installed only
	// when the swap actually applies (OnSwap, below).
	var perfMu sync.Mutex
	var pendingPerf promAppender
	extras := []func(w io.Writer) error{func(w io.Writer) error {
		perfMu.Lock()
		p := perf
		perfMu.Unlock()
		if p == nil {
			return nil
		}
		return p(w)
	}}
	stagePerf := func(p promAppender) {
		perfMu.Lock()
		pendingPerf = p
		perfMu.Unlock()
	}

	var source nfactor.Source
	var closeSource func() error
	switch {
	case o.listen != "":
		udp, err := nfactor.NewUDPSource(o.listen)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "nfreplay: listening on %s (one trace line per UDP datagram)\n", udp.Addr())
		source, closeSource = udp, udp.Close
	case o.genPkts > 0:
		n := o.genPkts
		if n > 2048 {
			n = 2048
		}
		source = nfactor.NewTraceSource(serveWorkload(int(n), o.seed), true, o.genPkts)
	case o.traceFile == "-":
		source = nfactor.NewReaderSource(os.Stdin)
	case o.traceFile != "":
		f, err := os.Open(o.traceFile)
		if err != nil {
			return err
		}
		trace, perr := nfactor.ParseTrace(f)
		f.Close()
		if perr != nil {
			return perr
		}
		if len(trace) == 0 {
			return fmt.Errorf("empty trace")
		}
		source = nfactor.NewTraceSource(trace, o.loop, 0)
	default:
		return fmt.Errorf("-serve needs a packet source: -trace file|-, -gen N, or -listen addr")
	}
	if o.rate > 0 {
		source = nfactor.NewPacedSource(source, o.rate)
		fmt.Fprintf(os.Stderr, "nfreplay: pacing source at %.0f pkts/sec\n", o.rate)
	}

	// The observability collectors (gap-hit, drift, swap audit) back the
	// -http endpoints and the periodic -prom file.
	var obsOpts *nfactor.ObsOptions
	if o.httpAddr != "" || o.promFile != "" {
		obsOpts = &nfactor.ObsOptions{}
	}

	srv, err := nfactor.NewServer(cand, nfactor.ServeConfig{
		Source:     source,
		Sink:       nfactor.NewWriterSink(os.Stdout),
		BatchSize:  o.batch,
		WindowSize: o.window,
		Obs:        obsOpts,
		OnSwap: func(rep *nfactor.SwapReport) {
			fmt.Fprint(os.Stderr, rep.Render())
			perfMu.Lock()
			if !rep.Blocked && pendingPerf != nil {
				perf = pendingPerf
			}
			pendingPerf = nil
			perfMu.Unlock()
		},
	})
	if err != nil {
		return err
	}
	num, genName := srv.Generation()
	fmt.Fprintf(os.Stderr, "nfreplay: serving %q, generation %d (SIGHUP re-synthesizes and hot-swaps)\n", genName, num)

	if o.httpAddr != "" {
		oh, err := nfactor.NewObsHTTP(o.httpAddr, srv, nfactor.ObsHTTPConfig{NF: o.name, ExtraProm: extras})
		if err != nil {
			return err
		}
		defer oh.Close()
		fmt.Fprintf(os.Stderr, "nfreplay: observability on http://%s (/metrics /state /coverage /swaps /debug/pprof/)\n", oh.Addr())
	}

	if o.swapAfter > 0 {
		next, nextPerf, err := o.rebuild()
		if err != nil {
			return fmt.Errorf("re-synthesis for -swap-after: %w", err)
		}
		stagePerf(nextPerf)
		srv.RequestSwap(nfactor.SwapRequest{Candidate: next,
			AllowBehaviorChange: o.swapAllow, AfterPackets: o.swapAfter})
	}

	sigCh := make(chan os.Signal, 4)
	signal.Notify(sigCh, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			select {
			case <-done:
				return
			case sig := <-sigCh:
				if sig != syscall.SIGHUP {
					srv.Stop()
					if closeSource != nil {
						closeSource()
					}
					continue
				}
				next, nextPerf, err := o.rebuild()
				if err != nil {
					fmt.Fprintf(os.Stderr, "nfreplay: re-synthesis failed, serving generation stays: %v\n", err)
					continue
				}
				stagePerf(nextPerf)
				// The report lands on stderr via OnSwap; nobody waits here.
				srv.RequestSwap(nfactor.SwapRequest{Candidate: next, AllowBehaviorChange: o.swapAllow})
			}
		}
	}()

	// Periodic atomic rewrite of the -prom file while serving: a
	// file-based scraper sees a complete, never-torn payload (temp file
	// + rename), refreshed from the same renderer /metrics uses.
	writeProm := func() error {
		return nfactor.WriteObsFileAtomic(o.promFile, func(w io.Writer) error {
			return nfactor.WriteServeMetrics(w, srv, o.name, extras)
		})
	}
	if o.promFile != "" {
		every := o.promEvery
		if every <= 0 {
			every = 2 * time.Second
		}
		go func() {
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					if err := writeProm(); err != nil {
						fmt.Fprintf(os.Stderr, "nfreplay: prom rewrite: %v\n", err)
					}
				}
			}
		}()
	}

	runErr := srv.Run()

	stats := srv.Stats()
	fmt.Fprintf(os.Stderr, "serve: %s\n", stats.Report())
	if o.telemetry {
		fmt.Fprintln(os.Stderr, "=== serving engine telemetry ===")
		fmt.Fprint(os.Stderr, srv.Snapshot().Report())
	}
	if o.promFile != "" {
		// Final rewrite so the file reflects the drained totals.
		if err := writeProm(); err != nil {
			return err
		}
	}
	return runErr
}

// serveWorkload generates synthetic serving traffic: the DiffTest
// workload generator's flows with the ingress interface cycled through
// lan/wan/eth0 (so interface-sensitive NFs see traffic on every side
// rather than a single dead interface) and half the destination ports
// drawn from well-known services (so port-policy NFs forward some of it
// instead of dropping uniformly random ports on the floor).
func serveWorkload(n int, seed int64) []nfactor.Packet {
	trace := nfactor.RandomTrace(n, seed)
	ifaces := [...]string{"lan", "wan", "eth0"}
	ports := [...]int{80, 443, 53, 22, 8080}
	for i := range trace {
		trace[i].InIface = ifaces[i%len(ifaces)]
		if i%2 == 0 {
			trace[i].DstPort = ports[(i/2)%len(ports)]
		}
	}
	return trace
}

func runReplay(res *nfactor.Result, name string, trace []nfactor.Packet, side string, shards int, fast, explain, telemetry bool, promFile string) error {
	if side == "diff" {
		candidate := nfactor.BackendModel
		if fast {
			candidate = nfactor.BackendCompiled
		}
		rep, err := res.DiffTest(nfactor.DiffOptions{Trace: trace, Backend: candidate})
		if err != nil {
			return err
		}
		fmt.Print(rep.Render())
		if !rep.Matches() {
			os.Exit(1)
		}
		return nil
	}

	var backend nfactor.Backend
	switch {
	case side == "program":
		backend = nfactor.BackendProgram
	case side == "model" && !fast:
		backend = nfactor.BackendModel
	case side == "model" || side == "compiled":
		backend = nfactor.BackendCompiled
	case side == "sharded":
		backend = nfactor.BackendSharded
	default:
		return fmt.Errorf("unknown -side %q", side)
	}

	var rp nfactor.Replayer
	var err error
	if backend == nfactor.BackendSharded {
		n := shards
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		rp, err = res.ShardedReplayer(n)
		if err != nil {
			// Say why this model cannot shard (the error names the state
			// variable with no sharding lowering), then degrade loudly
			// rather than silently.
			fmt.Fprintf(os.Stderr, "nfreplay: %s cannot run sharded: %v\n", name, err)
			fmt.Fprintln(os.Stderr, "nfreplay: falling back to the single compiled engine")
			rp, err = res.Replayer(nfactor.BackendCompiled)
		}
	} else {
		rp, err = res.Replayer(backend)
	}
	if err != nil {
		return err
	}

	if explain {
		ex, ok := rp.(nfactor.Explainer)
		if !ok {
			return fmt.Errorf("-explain is not available for -side %s (no model table to explain against)", side)
		}
		for i := range trace {
			_, tr, err := ex.ProcessExplain(&trace[i])
			if err != nil {
				return fmt.Errorf("packet %d: %w", i+1, err)
			}
			fmt.Printf("--- packet %d ---\n%s", i+1, tr)
		}
	} else {
		for i := range trace {
			v, err := rp.Process(&trace[i])
			if err != nil {
				return fmt.Errorf("packet %d: %w", i+1, err)
			}
			fmt.Printf("%4d  %-55s %s\n", i+1, trace[i], v)
		}
	}

	if telemetry || promFile != "" {
		snap := rp.Snapshot()
		if telemetry {
			// Diagnostics go to stderr: stdout carries only the verdict
			// stream, so it pipes cleanly into diff/grep.
			fmt.Fprintln(os.Stderr, "=== telemetry ===")
			fmt.Fprint(os.Stderr, snap.Report())
			if backend != nfactor.BackendProgram {
				fmt.Fprintln(os.Stderr, "=== model with hit counters ===")
				fmt.Fprint(os.Stderr, res.RenderModelWithCounters(snap))
				dead, err := res.DeadEntries(snap, 2)
				if err != nil {
					return err
				}
				if len(dead) > 0 {
					fmt.Fprintln(os.Stderr, "=== entries never hit by this trace ===")
					for _, d := range dead {
						if d.Reachable {
							fmt.Fprintf(os.Stderr, "entry %d: reachable (witness %v) — workload coverage gap\n", d.Entry, d.Witness)
						} else {
							fmt.Fprintf(os.Stderr, "entry %d: unreachable within 2 packets — likely dead table mass\n", d.Entry)
						}
					}
				}
			}
		}
		if promFile != "" {
			f, err := os.Create(promFile)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := snap.WritePrometheus(f, name); err != nil {
				return err
			}
			// Same endpoint also serves the synthesis pipeline's perf
			// counters (disjoint nfactor_pipeline_* namespace).
			if err := res.WritePerfPrometheus(f, name); err != nil {
				return err
			}
		}
	}
	return nil
}

// runBench cross-validates the engine against the reference on the
// trace, then times both: replays repeat until each side accumulates
// ~300ms of wall time, state warmed by a first pass.
func runBench(res *nfactor.Result, trace []nfactor.Packet) error {
	const minDur = 300 * time.Millisecond

	rep, err := res.DiffTest(nfactor.DiffOptions{Trace: trace, Backend: nfactor.BackendCompiled})
	if err != nil {
		return err
	}
	if !rep.Matches() {
		return fmt.Errorf("engine diverged from the model on %d packets; first: %s", rep.Mismatches, rep.FirstDiff)
	}

	inst, err := res.Instance()
	if err != nil {
		return err
	}
	eng, err := res.CompiledEngine()
	if err != nil {
		return err
	}

	refNs, err := timeReplay(minDur, len(trace), func() error {
		for i := range trace {
			if _, err := inst.Process(trace[i].ToValue()); err != nil {
				return fmt.Errorf("packet %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	engNs, err := timeReplay(minDur, len(trace), func() error {
		for i := range trace {
			if _, err := eng.Process(&trace[i]); err != nil {
				return fmt.Errorf("packet %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}

	fmt.Printf("trace: %d packets, engine cross-validated (0 mismatches)\n", len(trace))
	fmt.Printf("%-22s %12s %14s\n", "", "ns/pkt", "pkts/sec")
	fmt.Printf("%-22s %12.0f %14.0f\n", "reference interpreter", refNs, 1e9/refNs)
	fmt.Printf("%-22s %12.0f %14.0f\n", "compiled engine", engNs, 1e9/engNs)
	fmt.Printf("speedup: %.1fx\n", refNs/engNs)
	return nil
}

// timeReplay warms once, then repeats replay until minDur elapses and
// returns amortized ns/packet.
func timeReplay(minDur time.Duration, pkts int, replay func() error) (float64, error) {
	if err := replay(); err != nil {
		return 0, err
	}
	total := 0
	start := time.Now()
	for {
		if err := replay(); err != nil {
			return 0, err
		}
		total += pkts
		if time.Since(start) >= minDur {
			break
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(total), nil
}

// chainPlane is the slice of the fused and sharded chain engines that
// the chain replay needs.
type chainPlane interface {
	Process(p *nfactor.Packet) (*dataplane.ChainOutput, error)
	StageTelemetry(i int) telemetry.Snapshot
}

// splitChain parses the comma-separated -chain spec.
func splitChain(spec string) []string {
	names := strings.Split(spec, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return names
}

// runChain replays the trace through the fused chain data plane.
func runChain(spec, traceFile string, shards int, tel bool) error {
	names := splitChain(spec)
	stages, err := core.AnalyzeChain(names, core.Options{})
	if err != nil {
		return err
	}

	var plane chainPlane
	if shards > 1 {
		sh, err := dataplane.NewShardedChain(stages, shards)
		if err != nil {
			// Name the stage and state variable that blocks co-hashing,
			// then degrade loudly rather than silently.
			fmt.Fprintf(os.Stderr, "nfreplay: chain cannot run sharded: %v\n", err)
			fmt.Fprintln(os.Stderr, "nfreplay: falling back to the single fused engine")
		} else {
			plane = sh
		}
	}
	if plane == nil {
		eng, err := dataplane.CompileChain(stages)
		if err != nil {
			return err
		}
		plane = eng
	}

	in := os.Stdin
	if traceFile != "-" {
		f, err := os.Open(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	trace, err := nfactor.ParseTrace(in)
	if err != nil {
		return err
	}
	if len(trace) == 0 {
		return fmt.Errorf("empty trace")
	}

	for i := range trace {
		out, err := plane.Process(&trace[i])
		if err != nil {
			return fmt.Errorf("packet %d: %w", i+1, err)
		}
		fmt.Printf("%4d  %-55s %s\n", i+1, trace[i], chainVerdict(names, out))
	}

	if tel {
		// Per-stage counters are diagnostics: stderr, like the sharding
		// fallback notices, keeping stdout a pure verdict stream.
		fmt.Fprintln(os.Stderr, "=== per-stage telemetry ===")
		for si, name := range names {
			snap := plane.StageTelemetry(si)
			fmt.Fprintf(os.Stderr, "--- stage %d: %s ---\n%s", si, name, snap.Report())
		}
	}
	return nil
}

// chainVerdict renders where a packet ended up: the emitted interfaces,
// or the stage whose entry (or implicit drop) killed it.
func chainVerdict(names []string, out *dataplane.ChainOutput) string {
	if !out.Dropped {
		ifaces := make([]string, len(out.Sent))
		for i, sp := range out.Sent {
			ifaces[i] = sp.Iface
		}
		return fmt.Sprintf("sent %s", strings.Join(ifaces, ","))
	}
	for si := len(out.Entries) - 1; si >= 0; si-- {
		switch out.Entries[si] {
		case dataplane.EntryNotReached:
			continue
		case -1:
			return fmt.Sprintf("drop@%s (no entry matched)", names[si])
		default:
			return fmt.Sprintf("drop@%s (entry %d)", names[si], out.Entries[si])
		}
	}
	return "drop"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nfreplay:", err)
	os.Exit(1)
}
