// Command gpmlbench is the repository's end-to-end benchmark. It
// generates a seeded workload, drives the real layers through their
// public entry points (gpmld's HTTP service on a loopback listener,
// Query.Stream in process, the durable overlay), checks every answer, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object: with -trace 0 it carries the end-to-end
// metrics listed in BENCHMARK.json; with -trace 1 it carries the
// per-layer metrics of a traced run, whose spans are measured around the
// calls into each layer from this package and written out when the run
// ends.
//
// Run it from the repository root:
//
//	bash gpmlbench/run.sh --workload serve_point --seed 1 --seconds 10 --trace 0
//	bash gpmlbench/run.sh --workload all --seed 1 --seconds 10
//
// See gpmlbench/README.md for the workloads and metric definitions.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	out     string // directory for traces and scratch data
}

// phaseDur is how long one measured phase runs. A traced run splits its
// time between an untraced phase and a traced one, so it can report the
// tracing overhead as the difference between the two.
func (c config) phaseDur() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		d /= 2
	}
	return d
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps insertion order for printing.
type metrics struct {
	names []string
	vals  map[string]metric
}

func newMetrics() *metrics { return &metrics{vals: map[string]metric{}} }

func (m *metrics) set(name string, v float64, unit string) {
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

// benchDoc is the part of BENCHMARK.json the program reads: the metric
// sets every workload must report, and each workload's reason.
type benchDoc struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

// loadBenchDoc reads BENCHMARK.json from the working directory, the
// repository root.
func loadBenchDoc() (*benchDoc, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc benchDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &doc, nil
}

// metricNames lists the declared metrics of one set.
func metricNames(set []struct{ Name string }) []string {
	out := make([]string, len(set))
	for i, m := range set {
		out[i] = m.Name
	}
	return out
}

// report is what one workload run produced.
type report struct {
	e2e       *metrics // untraced phase
	layers    *metrics // traced phase; nil on untraced runs
	extra     *metrics // printed only: workload-specific figures
	attempted int
	failed    int
	problems  []string // answer-check failures and errors, one per line
	notes     []string // observations that are not failures
	census    map[string]any
	spans     []span
}

func newReport() *report {
	return &report{e2e: newMetrics(), extra: newMetrics(), census: map[string]any{}}
}

// fail records a failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*report, error){
	"serve_point":  runServePoint,
	"analytic":     func(c config) (*report, error) { return runAnalytic(c, 1) },
	"analytic_par": func(c config) (*report, error) { return runAnalytic(c, runtime.NumCPU()) },
	"write_mixed":  runWriteMixed,
}

var workloadOrder = []string{"serve_point", "analytic", "analytic_par", "write_mixed"}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadOrder)+" or all")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory for traces and the durable store's files")
		census   = flag.String("census", "", "merge this run's workload census into the given JSON file")
		pin      = flag.String("pin", "", "verify this seed's analytic shape answers against the reference and merge them into the given JSON file, then exit")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "gpmlbench: -trace must be 0 or 1")
		return 2
	}
	if *pin != "" {
		if err := pinSeed(*pin, cfg.seed); err != nil {
			fmt.Fprintln(os.Stderr, "gpmlbench: pin:", err)
			return 1
		}
		fmt.Printf("pinned seed %d in %s\n", cfg.seed, *pin)
		return 0
	}
	doc, err := loadBenchDoc()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpmlbench:", err)
		return 1
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if workloads[*workload] == nil {
		fmt.Fprintf(os.Stderr, "gpmlbench: unknown workload %q (want one of %v or all)\n", *workload, workloadOrder)
		return 2
	}
	type line struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	final := line{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		rep, err := workloads[name](cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpmlbench: %s: %v\n", name, err)
			return 1
		}
		if err := printReport(name, cfg, rep); err != nil {
			fmt.Fprintf(os.Stderr, "gpmlbench: %s: %v\n", name, err)
			return 1
		}
		if *census != "" {
			if err := writeCensus(*census, doc, name, cfg.seed, rep); err != nil {
				fmt.Fprintf(os.Stderr, "gpmlbench: census: %v\n", err)
				return 1
			}
		}
		final.Attempted += rep.attempted
		final.Failed += rep.failed
		final.Correct = final.Correct && rep.failed == 0
		set, want := rep.e2e, metricNames(doc.EndToEnd)
		if cfg.trace {
			set, want = rep.layers, metricNames(doc.PerLayer)
		}
		for _, m := range want {
			v, ok := set.vals[m]
			if !ok {
				fmt.Fprintf(os.Stderr, "gpmlbench: %s: metric %s was not measured\n", name, m)
				return 1
			}
			key := m
			if len(names) > 1 {
				key = name + "." + m
			}
			final.Metrics[key] = v
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpmlbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !final.Correct {
		return 1
	}
	return 0
}

// printReport writes the human-readable lines and the traced run's spans.
func printReport(name string, cfg config, rep *report) error {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Printf("== %s seed=%d seconds=%g %s\n", name, cfg.seed, cfg.seconds, mode)
	show := func(title string, m *metrics) {
		if m == nil {
			return
		}
		fmt.Printf("-- %s\n", title)
		for _, n := range m.names {
			v := m.vals[n]
			fmt.Printf("%-34s %14.4f %s\n", n, v.Value, v.Unit)
		}
	}
	show("end-to-end (untraced phase)", rep.e2e)
	show("workload-specific", rep.extra)
	show("per-layer (traced phase)", rep.layers)
	errRate := 0.0
	if rep.attempted > 0 {
		errRate = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("%-34s %14.4f (failed %d of %d attempted)\n", "error_rate", errRate, rep.failed, rep.attempted)
	for _, n := range rep.notes {
		fmt.Println("NOTE:", n)
	}
	for _, p := range rep.problems {
		fmt.Println("FAIL:", p)
	}
	if cfg.trace && len(rep.spans) > 0 {
		printBudget(rep.spans)
		path, err := writeSpans(cfg.out, fmt.Sprintf("%s-seed%d", name, cfg.seed), rep.spans)
		if err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(rep.spans), path)
	}
	return nil
}

// mergeJSON sets key in the JSON object stored at path, creating the
// file if needed and keeping its other keys.
func mergeJSON(path, key string, val any) error {
	doc := map[string]any{}
	if b, err := os.ReadFile(path); err == nil {
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.UseNumber() // keep every digit of the other keys' numbers
		if err := dec.Decode(&doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	doc[key] = val
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// heldOutSeed is the seed every later performance claim must also hold
// on; it is not used while a change is being written.
const heldOutSeed = 1001

// writeCensus records one workload run's census under "<workload>/seed=<n>",
// with the workload's reason from BENCHMARK.json.
func writeCensus(path string, doc *benchDoc, name string, seed int64, rep *report) error {
	for _, w := range doc.Workloads {
		if w.Name == name {
			rep.census["why"] = w.Why
		}
	}
	rep.census["error_rate"] = ratio(float64(rep.failed), float64(rep.attempted))
	if err := mergeJSON(path, "held_out_seed", heldOutSeed); err != nil {
		return err
	}
	return mergeJSON(path, fmt.Sprintf("%s/seed=%d", name, seed), rep.census)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// heapMB forces a collection and reports the live heap in megabytes.
func heapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / 1e6
}

// repeatSetup runs build n times, tearing down all but the last result,
// and returns that result with every build's wall time in seconds.
func repeatSetup[T any](n int, build func() (T, error), teardown func(T) error) (T, []float64, error) {
	var env T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := teardown(env); err != nil {
				return env, nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		e, err := build()
		if err != nil {
			return env, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		env = e
	}
	return env, times, nil
}

// setupRuns is how many times each run builds its environment; setup_s is
// the median.
const setupRuns = 5
