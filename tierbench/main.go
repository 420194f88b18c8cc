// Command tierbench is the repository's benchmark: it starts a real
// tierd built from this checkout, drives it over loopback HTTP and UDP
// with one of three named workloads, checks the outputs, and prints
// every end-to-end metric by name with its unit. With -trace 1 it also
// replays the workload's inputs in-process through each layer's public
// call, records a span per call, and prints the per-layer metrics and a
// ledger of where tierd's CPU went.
//
//	bash tierbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
//	bash tierbench/run.sh --workload all --seed 1 --seconds 30 --trace 1
//	bash tierbench/run.sh --compare A.json B.json
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md for the
// load model and what each workload is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one workload run as the results file stores it.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     int                `json:"trace"`
	Env       env                `json:"env"`
	TierdArgs []string           `json:"tierd_args"`
	TierdCPUs int                `json:"tierd_cpus"`
	Metrics   map[string]float64 `json:"metrics"`
	Units     map[string]string  `json:"units"`
	Samples   map[string]int     `json:"samples"`
	Checks    map[string]bool    `json:"checks"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	// At most two OS threads run Go code: the driver shares a 2-vCPU
	// machine with tierd.
	runtime.GOMAXPROCS(2)
	name := flag.String("workload", "", "workload: serve, ingest-flood, reprice-wide, or all")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 30, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 = also run the in-process traced replay and report per-layer metrics")
	out := flag.String("out", ".bench_build", "build, work and results directory")
	compare := flag.Bool("compare", false, "compare two results files given as arguments")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("-compare needs two results files")
		}
		if err := compareResults(flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err.Error())
		}
		return
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := workloadByName(*name); ok {
		ws = []workload{w}
	} else {
		fatal(fmt.Sprintf("unknown workload %q (want serve, ingest-flood, reprice-wide or all)", *name))
	}
	if *seconds < 3 || (*trace != 0 && *trace != 1) {
		fatal("need -seconds >= 3 and -trace 0 or 1")
	}
	binDir := filepath.Join(*out, "bin")
	for _, b := range []string{"tierd", "tracegen", "refd"} {
		if _, err := os.Stat(filepath.Join(binDir, b)); err != nil {
			fatal(fmt.Sprintf("missing %s binary (build with tierbench/run.sh): %v", b, err))
		}
	}
	place, err := pinDriver()
	if err != nil {
		fatal(fmt.Sprintf("pinning the driver: %v", err))
	}
	e := stampEnv(binDir)
	e.DriverPinned = place.pinned
	fmt.Printf("env: %s\n", e)

	total := summary{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range ws {
		res, report, err := runWorkload(place, w, e, binDir, *out, *seed, *seconds, *trace == 1)
		if err != nil {
			fatal(fmt.Sprintf("%s: %v", w.name, err))
		}
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for _, ok := range res.Checks {
			total.Correct = total.Correct && ok
		}
		for _, m := range report {
			key := m.name
			if len(ws) > 1 {
				key = w.name + "." + m.name
			}
			total.Metrics[key] = jsonMetric{m.value, m.unit}
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fatal(err.Error())
	}
	fmt.Println(string(line))
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "tierbench:", msg)
	os.Exit(1)
}

// runWorkload generates the inputs, runs the workload against tierd,
// optionally runs the traced replay, prints the report and writes the
// results file. The returned metrics are the ones the summary line
// reports: end-to-end untraced, per-layer traced.
func runWorkload(place *cpuPlacement, w workload, e env, binDir, out string, seed int64, seconds int, traced bool) (*result, []metric, error) {
	workDir := filepath.Join(out, "work", fmt.Sprintf("%s-seed%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(workDir)
	logf := func(format string, args ...any) { fmt.Printf("  "+format+"\n", args...) }
	fmt.Printf("== workload %s (seed %d, %ds, trace %d): %s\n", w.name, seed, seconds, b2i(traced), w.why)

	nProbes := probesPerRun(seconds)
	var in *input
	var err error
	if w.wide {
		in, err = genWide(workDir, seed, widePairs, nProbes)
	} else {
		in, err = genServe(filepath.Join(binDir, "tracegen"), workDir, seed, nProbes)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("generating inputs: %w", err)
	}
	logf("input: %d flows, %d warm datagrams, %d probe prefixes", in.meta.Flows, len(in.warm), len(in.probes))

	run := &e2eRun{place: place, w: w, in: in, binDir: binDir, workDir: workDir, seed: seed, seconds: seconds, log: logf}
	res, err := run.run()
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("  tierd on %d CPU(s): %s\n", place.tierdCPUs(w.tierdAllCPUs), strings.Join(res.tierdArgs, " "))
	r := &result{Workload: w.name, Seed: seed, Seconds: seconds, Trace: b2i(traced), Env: e,
		TierdArgs: res.tierdArgs, TierdCPUs: place.tierdCPUs(w.tierdAllCPUs), Metrics: map[string]float64{}, Units: map[string]string{},
		Samples: res.samples, Checks: map[string]bool{}, Attempted: res.attempted, Failed: res.failed}
	fmt.Println("  end-to-end (untraced):")
	for _, m := range res.metrics {
		fmt.Printf("    %-26s %14.4f %-5s (n=%d)\n", m.name, m.value, m.unit, res.samples[m.name])
	}
	for _, m := range res.ungated {
		fmt.Printf("    %-26s %14.4f %-5s (n=%d, not in the summary line)\n", m.name, m.value, m.unit, res.samples[m.name])
	}
	ratio := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Printf("    %-26s %14.6f       (%d failed / %d attempted)\n", "err_ratio", ratio, res.failed, res.attempted)
	verdict := "PASS"
	for _, c := range res.checks {
		r.Checks[c.name] = c.ok
		mark := "ok"
		if !c.ok {
			mark, verdict = "FAIL", "FAIL"
		}
		if c.ok || c.note == "" {
			fmt.Printf("    [%s] %s\n", mark, c.name)
		} else {
			fmt.Printf("    [%s] %s: %s\n", mark, c.name, c.note)
		}
	}
	fmt.Printf("  correctness %s: %s\n", w.name, verdict)

	report := res.metrics
	if traced {
		if err := place.unpin(); err != nil {
			return nil, nil, err
		}
		layers, err := runTraced(w, in, res, workDir, filepath.Join(out, "results"), seed, place.tierdCPUs(w.tierdAllCPUs))
		if err != nil {
			return nil, nil, fmt.Errorf("traced replay: %w", err)
		}
		report = layers
	}
	for _, m := range append(append(append([]metric(nil), res.metrics...), res.ungated...), report...) {
		r.Metrics[m.name] = m.value
		r.Units[m.name] = m.unit
	}
	if err := writeResult(filepath.Join(out, "results"), r); err != nil {
		return nil, nil, err
	}
	return r, report, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeResult(dir string, r *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace))
	fmt.Printf("  results: %s\n", path)
	return os.WriteFile(path, b, 0o644)
}
