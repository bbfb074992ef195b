// Command bench is NFactor's one benchmark: two workloads, nine
// end-to-end metrics and a ladder of per-layer metrics, with every
// output checked against the reference interpreter of the original
// NFLang program. See README.md in this directory and BENCHMARK.json at
// the root of the repository.
//
//	go run ./bench                  every workload, each in a fresh process; writes bench/out/results.json
//	go run ./bench -trace           the same, then again with spans recorded; writes bench/out/trace.json
//	go run ./bench -check           two sets of three runs each, medians compared against the bounds
//	go run ./bench -workload hot-flows -seed 7 -seconds 50 -trace 0
//	                                one run of one workload; the last line of output is its JSON result
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "run this one workload in this process and print its JSON result last (default: run every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 50, "how long one run of one workload measures")
	trace := fs.Bool("trace", false, "record spans around every call into a layer and report the per-layer metrics")
	quick := fs.Bool("quick", false, "smoke-test sizes: tiny traces, one set-up, all checks on")
	check := fs.Bool("check", false, "run two sets of three runs of every workload and fail if any end-to-end median differs by more than its bound")
	fs.Parse(joinTraceValue(os.Args[1:]))

	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace, quick: *quick}
	var err error
	switch {
	case *name != "":
		err = child(*name, o, os.Stdout)
	case *check:
		err = checkSets(o)
	default:
		err = full(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// joinTraceValue lets -trace be given as a bare flag or, as the
// benchmark driver gives it, followed by 0 or 1.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// result is the last line a run of one workload prints.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is what a run of one workload leaves in bench/out for the
// parent process: every metric it measured, not only the listed ones.
type runRecord struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Traced   bool               `json:"traced"`
	Ops      int64              `json:"ops"`
	Failed   int64              `json:"failed"`
	Notes    []string           `json:"notes,omitempty"`
	Values   map[string]float64 `json:"values"`
	Samples  map[string]int     `json:"samples,omitempty"`
	Machine  machine            `json:"machine"`
}

type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Network    string `json:"network"`
}

func thisMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: "unknown", Network: "loopback 127.0.0.1, no link crossed"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// repoRoot finds the checkout: the nearest directory at or above the
// working directory that holds the nfactor module.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module nfactor\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the nfactor module")
		}
		dir = parent
	}
}

// outDir is bench/out in the checkout, created on demand.
func outDir() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, "bench", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

func runFile(dir, workload string, traced bool) string {
	if traced {
		return filepath.Join(dir, "run-"+workload+"-traced.json")
	}
	return filepath.Join(dir, "run-"+workload+".json")
}

// child runs one workload in this process. It prints every metric by
// name with its unit, leaves the full record (and the spans, when
// traced) in bench/out, and prints the JSON result as its last line:
// the end-to-end metrics of an untraced run, the listed per-layer
// metrics of a traced one. Any failed output check is an error.
func child(name string, o runOpts, w io.Writer) error {
	wl, err := findWorkload(name)
	if err != nil {
		return err
	}
	dir, err := outDir()
	if err != nil {
		return err
	}
	m := thisMachine()
	fmt.Fprintf(w, "workload %s: %s\n", wl.name, wl.why)
	fmt.Fprintf(w, "seed %d, %.1f s, traced %v; nproc %d, GOMAXPROCS %d, %s, %s; network: %s\n",
		o.seed, o.seconds, o.trace, m.NProc, m.GOMAXPROCS, m.GoVersion, m.CPU, m.Network)

	rep, events := runWorkload(wl, o)

	fmt.Fprint(w, rep.render(endToEnd))
	fmt.Fprint(w, rep.render(perLayer))
	fmt.Fprintf(w, "  ops %d, failed %d\n", rep.ops, rep.failed)
	for _, n := range rep.notes {
		fmt.Fprintln(w, "  note:", n)
	}

	rec := runRecord{Workload: name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Ops: rep.ops, Failed: rep.failed, Notes: rep.notes, Values: rep.values, Samples: rep.samples, Machine: m}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(runFile(dir, name, o.trace), b, 0o644); err != nil {
		return err
	}
	if o.trace {
		if err := writeTraceFile(filepath.Join(dir, "trace-"+name+".json"), events); err != nil {
			return err
		}
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.ops, Failed: rep.failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		if o.trace && !d.Listed {
			continue
		}
		v, ok := rep.values[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", name, d.Name)
		}
		res.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	if rep.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed their output check", name, rep.failed, rep.ops)
	}
	return nil
}
