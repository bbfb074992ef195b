package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef names one metric the harness prints. Bound is set on
// end-to-end metrics only: the share of the parent's median by which
// the metric may get worse before a change counts as a regression.
// Listed per-layer metrics are the ones every workload's traced run
// produces and that are not 0 by construction; BENCHMARK.json carries
// exactly the end-to-end metrics and the listed per-layer metrics.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Listed bool
}

// corpusNFs is the NF corpus in the order every per-NF metric uses.
var corpusNFs = []string{"balance", "dpi", "firewall", "lb", "mirror", "nat", "ratelimit", "snortlite"}

// topoNames are the four verified topologies of the control workload.
var topoNames = []string{"protected", "breach", "loop", "fattree16"}

// endToEnd are the eight metrics a user of the system sees and the
// benchmark holds to a bound. They are measured with tracing off. Every
// metric that is a time or a rate of CPU-bound work has the widest
// bound the benchmark contract allows: on the shared 2-vCPU sandbox
// their run-to-run spread is 2 to 10% depending on the hour (see
// README.md, "Measured spread"). Counts and the batch-fill-dominated
// wire latencies repeat to within 1%. Four figures the issue also named
// end-to-end are per-layer metrics here, because no bound would hold
// them on two shared cores: the closed-loop and the exploration rate
// take both cores at once (serve.wire_pps, symexec.paths_per_s_w2), the
// swap pause is one 70 ms allocation-bound call that no run meets on a
// quiet machine often enough (serve.swap_pause_ms), and
// resynthesis-to-serve is that pause plus 7 ms of synthesis
// (serve.resynth_to_serve_ms).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "serve_pps", Unit: "pkt/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_pkt", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "wire_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "wire_p99_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "synth_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "verify_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, measured in the traced
// run. Layers are the repo's packages; the prefix names the package.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "lower", Listed: true}
	}
	hi := func(name, unit string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "higher", Listed: true}
	}
	// unlisted metrics are printed by the harness but kept out of
	// BENCHMARK.json: they are 0 on a healthy run, or only one workload
	// produces them, or they are a difference of two rungs a few ns
	// apart, which run-to-run noise carries through 0.
	un := func(d metricDef) metricDef { d.Listed = false; return d }

	defs := []metricDef{
		lo("netpkt.parse_ns_pkt", "ns/pkt"),
		lo("netpkt.format_ns_pkt", "ns/pkt"),
		un(lo("netpkt.malformed", "count")),

		lo("serve.source_ns_pkt", "ns/pkt"),
		lo("serve.udp_next_ns_pkt", "ns/pkt"),
		lo("serve.loop_ns_pkt", "ns/pkt"),
		lo("serve.writer_sink_ns_pkt", "ns/pkt"),
		hi("serve.wire_pps", "pkt/s"),
		lo("serve.batch_us_p50", "us"),
		lo("serve.batch_us_p99", "us"),
		lo("serve.batch_us_p999", "us"),
		lo("serve.batch_us_max", "us"),
		lo("serve.wire_p50_us_20k", "us"),
		lo("serve.wire_p99_us_20k", "us"),
		un(lo("serve.wire_lost", "count")),
		lo("serve.gen_late_us_p99", "us"),
		hi("serve.swaps_applied", "count"),
		un(lo("serve.swaps_blocked", "count")),
		lo("serve.swap_pause_ms", "ms"),
		lo("serve.swap_pause_ms_max", "ms"),
		lo("serve.resynth_to_serve_ms", "ms"),
		hi("serve.swap_window_len", "count"),
		un(lo("serve.epoch_violations", "count")),

		lo("dataplane.engine_ns_pkt", "ns/pkt"),
		un(lo("dataplane.insert_ns_pkt", "ns/pkt")),
		un(lo("dataplane.lookup_ns_pkt", "ns/pkt")),
		un(lo("dataplane.chain_ns_pkt", "ns/pkt")),
		lo("dataplane.sharded_ns_pkt", "ns/pkt"),
		lo("dataplane.shardedchain_ns_pkt", "ns/pkt"),
		un(lo("dataplane.handoffs_per_pkt", "count")),
		lo("dataplane.compile_us", "us"),
		lo("dataplane.classify_us", "us"),
		lo("dataplane.entries", "count"),
		lo("dataplane.tree_depth", "count"),
		hi("dataplane.entry_coverage", "ratio"),
		un(lo("dataplane.drop_share", "ratio")),
		un(lo("dataplane.bytes_per_flow", "B/flow")),
		lo("dataplane.stateview_us", "us"),

		un(lo("telemetry.sink_ns_pkt", "ns/pkt")),
		lo("telemetry.snapshot_us", "us"),
		un(lo("obsrv.observe_ns_pkt", "ns/pkt")),
		lo("obsrv.snapshot_us", "us"),

		lo("runtime.gc_count", "count"),
		lo("runtime.gc_pause_ms_total", "ms"),

		lo("lang.parse_us", "us"),
		lo("slice.time_us", "us"),
		lo("symexec.slice_us", "us"),
		lo("symexec.paths", "count"),
		hi("symexec.paths_per_s_w1", "paths/s"),
		hi("symexec.paths_per_s_w2", "paths/s"),
		lo("solver.sat_queries", "count"),
		hi("solver.sat_hit_rate", "ratio"),
		lo("core.equiv_us", "us"),
		lo("core.difftest_us", "us"),
		lo("lint.us", "us"),
		lo("model.entries", "count"),

		lo("verify.check_ms_w2", "ms"),
		lo("verify.explorations", "count"),
		hi("verify.sat_hit_rate", "ratio"),

		lo("ladder_residual_pct", "%"),
	}
	for _, nf := range corpusNFs {
		defs = append(defs,
			un(lo("dataplane.engine_ns_pkt."+nf, "ns/pkt")),
			lo("core.analyze_us."+nf, "us"))
	}
	for _, t := range topoNames {
		defs = append(defs, lo("verify.check_ms."+t, "ms"))
	}
	return defs
}

// report collects what one phase, or one whole run, measured.
type report struct {
	values  map[string]float64
	samples map[string]int // sample count behind a percentile
	ops     int64
	failed  int64
	notes   []string // why operations failed
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setQ records a quantile together with the number of samples it was
// taken from.
func (r *report) setQ(name string, sorted []float64, q float64) {
	if len(sorted) == 0 {
		return
	}
	r.values[name] = quantile(sorted, q)
	r.samples[name] = len(sorted)
}

// fail counts n failed operations and keeps the reason.
func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// merge folds o into r; a metric both measured keeps r's value.
func (r *report) merge(o *report) {
	for k, v := range o.values {
		if _, ok := r.values[k]; !ok {
			r.values[k] = v
		}
	}
	for k, v := range o.samples {
		if _, ok := r.samples[k]; !ok {
			r.samples[k] = v
		}
	}
	r.ops += o.ops
	r.failed += o.failed
	r.notes = append(r.notes, o.notes...)
}

// render prints every metric of defs that r holds, one per line.
func (r *report) render(defs []metricDef) string {
	var sb strings.Builder
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "  %-34s %16.4f %-8s", d.Name, v, d.Unit)
		if n, ok := r.samples[d.Name]; ok {
			fmt.Fprintf(&sb, " n=%d", n)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// fastTime and fastRate summarize one operation repeated within a run
// by its best repetition: the shortest time, the highest rate. The
// sandbox is a few cores of a shared host whose speed moves by tens of
// per cent from one second to the next, always downwards from a level
// it reaches only now and then; that level is the one thing two runs of
// the same code agree on, and the one a code change moves. A quantile
// further in (the median, the fast quartile) lands on whatever mix of
// slow seconds the run happened to see. A time cannot read too short:
// every sample is a monotonic-clock interval around work that was done.
// The driver and -check then take medians over runs.
func fastTime(xs []float64) float64 {
	best := math.Inf(1)
	for _, x := range xs {
		best = math.Min(best, x)
	}
	return best
}

func fastRate(xs []float64) float64 {
	best := math.Inf(-1)
	for _, x := range xs {
		best = math.Max(best, x)
	}
	return best
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile reads the q-quantile off an ascending slice (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
