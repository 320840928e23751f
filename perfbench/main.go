// Command perfbench measures the host cost of the NPF simulator: wall
// time, CPU time, allocations and live heap per workload op, on four
// output-checked workloads. See README.md for the workloads and metrics.
//
//	perfbench --workload ib-npf --seed 0 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it also
// runs a profiled pass and prints the per-layer metrics. The last line of
// standard output is one JSON object with the result.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

//go:embed fingerprints.json
var fingerprintsJSON []byte

func main() {
	var (
		name    = flag.String("workload", "", "workload: ib-npf, eth-stream, kv-tcp or fleet-ud")
		seed    = flag.Int64("seed", 0, "input seed; 0 reproduces the paper experiments' seeds")
		seconds = flag.Int("seconds", 10, "timed-run seconds to measure")
		traced  = flag.Int("trace", 0, "1 adds a profiled pass and prints per-layer metrics")
		outDir  = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's spans")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload {ib-npf|eth-stream|kv-tcp|fleet-ud} --seed N --seconds S --trace {0|1}")
		os.Exit(2)
	}
	var expected map[string]map[string]string
	if err := json.Unmarshal(fingerprintsJSON, &expected); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: fingerprints.json:", err)
		os.Exit(1)
	}
	want := expected[w.name][strconv.FormatInt(*seed, 10)]
	simSeed := w.canonicalSeed + *seed

	cal := newCalibrator()
	var res result
	if *traced == 0 {
		p := measure(w, simSeed, float64(*seconds), minReps, cal)
		p.extraSetups(w, simSeed, minSetups)
		res = p.result(want)
		res.Metrics = p.endToEnd()
		p.print(w.name, *seed, "untraced", want)
	} else {
		// The untraced pass gives the CPU and allocation totals the
		// profile shares are applied to. Per-layer metrics have no
		// bound, so one rep suffices when the budget allows no more.
		base := measure(w, simSeed, float64(*seconds)/2, 1, cal)
		base.print(w.name, *seed, "untraced", want)
		sp := &spans{}
		prof := measureTraced(w, simSeed, float64(*seconds)/2, cal, sp)
		prof.print(w.name, *seed, "traced", want)
		res = base.result(want)
		pr := prof.result(want)
		res.Correct = res.Correct && pr.Correct
		res.Attempted += pr.Attempted
		res.Failed += pr.Failed
		res.Metrics = perLayer(base, prof)
		printLayers(res.Metrics)
		if path, err := sp.write(*outDir, w.name, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Printf("spans: %s\n%s", path, sp.summary())
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printLayers(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("per-layer metrics (traced run):")
	for _, k := range names {
		fmt.Printf("  %-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
