package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runSet runs every workload once, each in a fresh child process, so
// that no result depends on what ran before it, and returns the
// records the children left in bench/out.
func runSet(o runOpts) (map[string]*runRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := outDir()
	if err != nil {
		return nil, err
	}
	set := map[string]*runRecord{}
	for _, w := range workloads() {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-trace=" + strconv.FormatBool(o.trace), "-quick=" + strconv.FormatBool(o.quick)}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		b, err := os.ReadFile(runFile(dir, w.name, o.trace))
		if err != nil {
			return nil, err
		}
		rec := &runRecord{}
		if err := json.Unmarshal(b, rec); err != nil {
			return nil, err
		}
		set[w.name] = rec
	}
	return set, nil
}

// full runs one set untraced and, with -trace, a second set with spans
// recorded; it writes bench/out/results.json and bench/out/trace.json.
func full(o runOpts) error {
	dir, err := outDir()
	if err != nil {
		return err
	}
	traced := o.trace
	o.trace = false
	out := map[string]any{}
	plain, err := runSet(o)
	if err != nil {
		return err
	}
	out["untraced"] = plain
	if traced {
		o.trace = true
		set, err := runSet(o)
		if err != nil {
			return err
		}
		out["traced"] = set
		// Spans cost time where they are recorded: around each Server.Run
		// and, per packet batch, the Emit interval stamps.
		a, b := plain["hot-flows"].Values["serve_pps"], set["hot-flows"].Values["serve_pps"]
		overhead := 100 * (a - b) / a
		out["trace_overhead_pct"] = overhead
		fmt.Printf("trace_overhead_pct %.2f %% (hot-flows serve_pps, untraced %.0f vs traced %.0f pkt/s)\n", overhead, a, b)

		var events []traceEvent
		for i, w := range workloads() {
			ev, err := readTraceFile(filepath.Join(dir, "trace-"+w.name+".json"))
			if err != nil {
				return err
			}
			for j := range ev {
				ev[j].Pid = i + 1 // one process row per workload
			}
			events = append(events, ev...)
		}
		if err := writeTraceFile(filepath.Join(dir, "trace.json"), events); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d spans)\n", filepath.Join(dir, "trace.json"), len(events))
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "results.json")
	fmt.Println("wrote", path)
	return os.WriteFile(path, b, 0o644)
}

// checkRuns is how many runs of every workload each of -check's two
// sets holds. One run can fall into a slow stretch of the machine from
// end to end; the median of three does not.
const checkRuns = 3

// checkSets runs two sets of the same code, alternating between them,
// and prints, for every workload and end-to-end metric, how much worse
// the second set's median is than the first's against the metric's
// bound.
func checkSets(o runOpts) error {
	o.trace = false
	var sets [2][]map[string]*runRecord
	for i := 0; i < 2*checkRuns; i++ {
		set, err := runSet(o)
		if err != nil {
			return err
		}
		sets[i%2] = append(sets[i%2], set)
	}
	medianOf := func(runs []map[string]*runRecord, workload, metric string) float64 {
		var xs []float64
		for _, set := range runs {
			xs = append(xs, set[workload].Values[metric])
		}
		return median(xs)
	}
	breaches := 0
	fmt.Printf("\n%-16s %-20s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, w := range workloads() {
		for _, d := range endToEnd {
			a, b := medianOf(sets[0], w.name, d.Name), medianOf(sets[1], w.name, d.Name)
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			mark := ""
			if worse > d.Bound {
				mark = "  BREACH"
				breaches++
			}
			fmt.Printf("%-16s %-20s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", w.name, d.Name, a, b, 100*worse, 100*d.Bound, mark)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metrics differ between two sets of the same code by more than their bound", breaches)
	}
	return nil
}
