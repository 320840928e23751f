// Command npfstat inspects npfbench artifacts: it renders the deterministic
// time-series CSV written by `npfbench -series` as terminal sparklines, and
// diffs two `-json` result files with per-metric relative-delta thresholds
// and a pass/fail verdict — the regression gate CI runs against
// BENCH_pr10.json.
//
// Render a run's dynamics:
//
//	npfstat -render out.csv
//
// Diff a run against a baseline (two spellings):
//
//	npfstat -baseline BENCH_pr10.json out.json
//	npfstat BENCH_pr10.json out.json
//
// Both files are read with artifact.Read, which rejects any field the
// schema does not declare, and compared with artifact.Diff: every field's
// gate (exact, within -count-tol, timing, no growth, warn on change or on
// nonzero) is declared on the field itself in internal/artifact. A row the
// baseline has never seen fails; sections only the baseline has are
// ignored. Timing deltas only warn, unless -fail-on-timing promotes them.
// Exit codes: 0 pass, 1 fail, 2 usage or unreadable artifact.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"npf/internal/artifact"
	"npf/internal/trace"
)

// writeTable renders the delta table with aligned columns.
func writeTable(w io.Writer, rows []artifact.Row) {
	fmt.Fprintf(w, "%-10s %-16s %16s %16s %8s  %-4s %s\n",
		"scope", "metric", "baseline", "current", "delta", "", "")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-16s %16s %16s %8s  %-4s %s\n",
			r.Scope, r.Metric, r.Base, r.Cur, r.Delta, r.Verdict, r.Note)
	}
}

// render loads a -series CSV and prints each section as sparklines.
func render(path string, width int) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "npfstat: %v\n", err)
		return 2
	}
	defer f.Close()
	set, err := trace.ReadSeriesSet(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "npfstat: %v\n", err)
		return 2
	}
	if len(set) == 0 {
		fmt.Fprintf(os.Stderr, "npfstat: %s: no series sections\n", path)
		return 2
	}
	for i, s := range set {
		if len(s.Times) == 0 {
			continue
		}
		fmt.Printf("-- section %d/%d --\n", i+1, len(set))
		s.WriteSparklines(os.Stdout, width)
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("npfstat", flag.ContinueOnError)
	renderPath := fs.String("render", "", "render a -series CSV as terminal sparklines")
	width := fs.Int("width", 60, "sparkline width for -render")
	baseline := fs.String("baseline", "", "baseline -json artifact to diff against")
	countTol := fs.Float64("count-tol", 0.05, "hard-fail threshold on relative drift of the kv, fault-anatomy and scale-out tol fields (engines/events gate exactly)")
	timingTol := fs.Float64("timing-tol", 0.5, "warn threshold on relative wall-clock deltas")
	failOnTiming := fs.Bool("fail-on-timing", false, "treat timing warnings as failures")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *renderPath != "" {
		return render(*renderPath, *width)
	}

	var basePath, curPath string
	switch rest := fs.Args(); {
	case *baseline != "" && len(rest) == 1:
		basePath, curPath = *baseline, rest[0]
	case *baseline == "" && len(rest) == 2:
		basePath, curPath = rest[0], rest[1]
	default:
		fmt.Fprintln(os.Stderr, "usage: npfstat [-render series.csv] | [-baseline base.json] cur.json | base.json cur.json")
		return 2
	}

	base, err := artifact.Read(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "npfstat: %v\n", err)
		return 2
	}
	cur, err := artifact.Read(curPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "npfstat: %v\n", err)
		return 2
	}

	rows, pass := artifact.Diff(base, cur, artifact.Config{
		CountTol: *countTol, TimingTol: *timingTol, FailOnTiming: *failOnTiming,
	})
	fmt.Printf("npfstat: %s (baseline) vs %s\n", basePath, curPath)
	writeTable(os.Stdout, rows)
	if !pass {
		fmt.Println("verdict: FAIL")
		return 1
	}
	fmt.Println("verdict: PASS")
	return 0
}
