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
// Diff semantics: structural drift — an experiment in the current run that
// the baseline has never seen, an engine-count or event-count mismatch
// (both exact: engines and events are fully deterministic given the seed,
// for any -parallel or -engines value), a KV-ablation metric (ops exactly;
// p99/npfs/evictions/shed/failovers beyond -count-tol — all virtual-time
// deterministic), a scale-out fleet row (hosts/clients/ops/fingerprint and
// per-tenant ops/lost exactly; bytes-per-host, npfs, evictions, and tenant
// p99 beyond -count-tol), a fault-anatomy row (faults/pending and the
// critical-path stage/layer/host attribution exactly; npfs and the total
// latency percentiles beyond -count-tol), a PDES-scaling row with drifted
// events, or an allocs/op regression in the engine microbenchmark — is a
// hard failure (exit 1). Nonzero dropped-telemetry counts (flight-recorder
// events/records, spans) only warn: the capture was partial but the
// simulation itself is unaffected.
// Wall-clock, events-per-second, and scaling-speedup deltas are
// machine-load noise and only warn, unless -fail-on-timing promotes them.
// Exit codes: 0 pass, 1 fail, 2 usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"npf/internal/trace"
)

// expRow mirrors npfbench's per-experiment artifact row.
type expRow struct {
	Name         string  `json:"name"`
	WallMs       float64 `json:"wall_ms"`
	Engines      int     `json:"engines"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// kvRow mirrors npfbench's per-policy KV ablation row. Every field is
// virtual-time-deterministic given the seed, so the gate treats all of them
// as counts, not timing.
type kvRow struct {
	Policy    string  `json:"policy"`
	Ops       int     `json:"ops"`
	P99Us     float64 `json:"p99_us"`
	NPFs      uint64  `json:"npfs"`
	Evictions uint64  `json:"evictions"`
	Shed      uint64  `json:"shed"`
	Failovers uint64  `json:"failovers"`
}

// anatomyRow mirrors npfbench's per-policy fault-anatomy row ("anatomy"
// experiment). Fault counts and the critical-path attribution are exact
// (virtual-time deterministic); the total-latency percentiles gate within
// -count-tol; the dropped_* fields only warn (telemetry loss, not a
// behaviour change).
type anatomyRow struct {
	Policy         string  `json:"policy"`
	Faults         int     `json:"faults"`
	Pending        int     `json:"pending"`
	NPFs           uint64  `json:"npfs"`
	TotalP50Us     float64 `json:"total_p50_us"`
	TotalP99Us     float64 `json:"total_p99_us"`
	CritStage      string  `json:"crit_stage"`
	CritLayer      string  `json:"crit_layer"`
	CritHost       int64   `json:"crit_host"`
	CritShare      float64 `json:"crit_share"`
	DroppedEvents  uint64  `json:"dropped_fault_events"`
	DroppedRecords uint64  `json:"dropped_fault_records"`
	DroppedSpans   uint64  `json:"dropped_spans"`
}

// traceDrops mirrors npfbench's telemetry-loss summary.
type traceDrops struct {
	Tracers      int    `json:"tracers"`
	Spans        uint64 `json:"dropped_spans"`
	FaultEvents  uint64 `json:"dropped_fault_events"`
	FaultRecords uint64 `json:"dropped_fault_records"`
}

// scalingRow mirrors npfbench's PDES-scaling record ("scale" experiment).
// The event count is the same partitioned simulation at two thread budgets
// and must agree exactly; the wall clocks and speedup are timing.
type scalingRow struct {
	Name    string  `json:"name"`
	Wall1Ms float64 `json:"engines1_wall_ms"`
	Wall8Ms float64 `json:"engines8_wall_ms"`
	Speedup float64 `json:"speedup"`
	Events  uint64  `json:"events"`
}

// scaleoutTenantRow mirrors one tenant of a scale-out fleet.
type scaleoutTenantRow struct {
	Tenant   string  `json:"tenant"`
	Reg      string  `json:"reg"`
	Clients  int     `json:"clients"`
	Ops      uint64  `json:"ops"`
	Timeouts uint64  `json:"timeouts"`
	Lost     uint64  `json:"lost"`
	P50Us    float64 `json:"p50_us"`
	P99Us    float64 `json:"p99_us"`
}

// scaleoutRow mirrors one transport's cluster-sweep fleet ("scaleout"
// experiment). The fleet shape (hosts/clients), completed ops, and the run
// fingerprint gate exactly — the fingerprint folds every per-tenant tail
// percentile, so it is the byte-identity check across engine budgets and
// -parallel fan-outs. Bytes-per-host (the cheap-per-host-state budget) and
// the NPF-machinery counters gate within -count-tol.
type scaleoutRow struct {
	Transport    string              `json:"transport"`
	Hosts        int                 `json:"hosts"`
	Clients      int                 `json:"clients"`
	Ops          uint64              `json:"ops"`
	NPFs         uint64              `json:"npfs"`
	Evictions    uint64              `json:"evictions"`
	DropsFault   uint64              `json:"drops_fault"`
	BytesPerHost int64               `json:"bytes_per_host"`
	Fingerprint  string              `json:"fingerprint"`
	Tenants      []scaleoutTenantRow `json:"tenants"`
}

// artifact mirrors the npfbench -json document (fields npfstat reads).
type artifact struct {
	GoVersion   string `json:"go_version"`
	Quick       bool   `json:"quick"`
	EngineBench struct {
		NsPerOp      float64 `json:"ns_per_op"`
		AllocsPerOp  int64   `json:"allocs_per_op"`
		EventsPerSec float64 `json:"events_per_sec"`
	} `json:"engine_bench"`
	Series *struct {
		Engines int    `json:"engines"`
		Samples int    `json:"samples"`
		Metrics int    `json:"metrics"`
		Digest  string `json:"digest"`
	} `json:"series,omitempty"`
	KV           []kvRow       `json:"kv,omitempty"`
	FaultAnatomy []anatomyRow  `json:"fault_anatomy,omitempty"`
	ScaleOut     []scaleoutRow `json:"scale_out,omitempty"`
	Scaling      []scalingRow  `json:"scaling,omitempty"`
	TraceDrops   *traceDrops   `json:"trace_drops,omitempty"`
	Experiments  []expRow      `json:"experiments"`
}

func readArtifact(path string) (*artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(a.Experiments) == 0 {
		return nil, fmt.Errorf("%s: no experiments (not an npfbench -json artifact?)", path)
	}
	return &a, nil
}

// verdict classifies one compared metric.
type verdict int

const (
	vOK verdict = iota
	vWarn
	vFail
)

func (v verdict) String() string {
	switch v {
	case vWarn:
		return "warn"
	case vFail:
		return "FAIL"
	}
	return "ok"
}

// row is one line of the delta table.
type row struct {
	scope  string // experiment name, "engine", or "series"
	metric string
	base   string
	cur    string
	delta  string
	v      verdict
	note   string
}

// relDelta returns (cur-base)/base, treating a zero base specially.
func relDelta(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (cur - base) / base
}

func fmtDelta(d float64) string {
	if math.IsInf(d, 0) {
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", d*100)
}

// diffConfig holds the gate thresholds.
type diffConfig struct {
	countTol     float64 // hard-fail threshold on KV-ablation count metrics
	timingTol    float64 // warn threshold on wall-clock metrics
	failOnTiming bool    // promote timing warnings to failures
}

// diff compares cur against base and returns the table plus overall pass.
func diff(base, cur *artifact, cfg diffConfig) ([]row, bool) {
	var rows []row
	pass := true
	fail := func(r row) {
		r.v = vFail
		pass = false
		rows = append(rows, r)
	}
	timing := func(scope, metric string, b, c float64) {
		d := relDelta(b, c)
		r := row{scope: scope, metric: metric,
			base: fmt.Sprintf("%.1f", b), cur: fmt.Sprintf("%.1f", c), delta: fmtDelta(d)}
		if math.Abs(d) > cfg.timingTol {
			r.v = vWarn
			r.note = "timing (load-dependent)"
			if cfg.failOnTiming {
				r.v = vFail
				pass = false
			}
		}
		rows = append(rows, r)
	}

	byName := make(map[string]*expRow, len(base.Experiments))
	for i := range base.Experiments {
		byName[base.Experiments[i].Name] = &base.Experiments[i]
	}
	for i := range cur.Experiments {
		c := &cur.Experiments[i]
		b, ok := byName[c.Name]
		if !ok {
			fail(row{scope: c.Name, metric: "presence", base: "-", cur: "present",
				delta: "new", note: "experiment not in baseline"})
			continue
		}
		// Engines and events are deterministic given a seed: drift here is
		// a structural/behavioural change, not noise.
		r := row{scope: c.Name, metric: "engines",
			base: fmt.Sprint(b.Engines), cur: fmt.Sprint(c.Engines), delta: fmtDelta(relDelta(float64(b.Engines), float64(c.Engines)))}
		if c.Engines != b.Engines {
			fail(r)
		} else {
			rows = append(rows, r)
		}
		// Events are exact, like engines: the event stream is a pure
		// function of the seed, so even a one-event delta is a real
		// behavioural change (and conservation across -engines counts is
		// part of the PDES determinism contract).
		d := relDelta(float64(b.Events), float64(c.Events))
		r = row{scope: c.Name, metric: "events",
			base: fmt.Sprint(b.Events), cur: fmt.Sprint(c.Events), delta: fmtDelta(d)}
		if c.Events != b.Events {
			r.note = "event-count drift (deterministic given seed)"
			fail(r)
		} else {
			rows = append(rows, r)
		}
		timing(c.Name, "wall_ms", b.WallMs, c.WallMs)
		timing(c.Name, "events_per_sec", b.EventsPerSec, c.EventsPerSec)
	}

	if base.EngineBench.NsPerOp > 0 || cur.EngineBench.NsPerOp > 0 {
		timing("engine", "ns_per_op", base.EngineBench.NsPerOp, cur.EngineBench.NsPerOp)
		r := row{scope: "engine", metric: "allocs_per_op",
			base: fmt.Sprint(base.EngineBench.AllocsPerOp), cur: fmt.Sprint(cur.EngineBench.AllocsPerOp),
			delta: fmtDelta(relDelta(float64(base.EngineBench.AllocsPerOp), float64(cur.EngineBench.AllocsPerOp)))}
		if cur.EngineBench.AllocsPerOp > base.EngineBench.AllocsPerOp {
			r.note = "allocation regression"
			fail(r)
		} else {
			rows = append(rows, r)
		}
	}

	if len(cur.KV) > 0 {
		kvBase := make(map[string]*kvRow, len(base.KV))
		for i := range base.KV {
			kvBase[base.KV[i].Policy] = &base.KV[i]
		}
		count := func(scope, metric string, b, c float64) {
			d := relDelta(b, c)
			r := row{scope: scope, metric: metric,
				base: fmt.Sprintf("%.0f", b), cur: fmt.Sprintf("%.0f", c), delta: fmtDelta(d)}
			if math.Abs(d) > cfg.countTol {
				r.note = fmt.Sprintf("beyond count-tol %.2f", cfg.countTol)
				fail(r)
			} else {
				rows = append(rows, r)
			}
		}
		for i := range cur.KV {
			c := &cur.KV[i]
			scope := "kv/" + c.Policy
			b, ok := kvBase[c.Policy]
			if !ok {
				fail(row{scope: scope, metric: "presence", base: "-", cur: "present",
					delta: "new", note: "policy not in baseline"})
				continue
			}
			// Completed ops are a correctness invariant, not a tolerance.
			r := row{scope: scope, metric: "ops",
				base: fmt.Sprint(b.Ops), cur: fmt.Sprint(c.Ops),
				delta: fmtDelta(relDelta(float64(b.Ops), float64(c.Ops)))}
			if c.Ops != b.Ops {
				r.note = "completed-op drift (lost or duplicated client ops)"
				fail(r)
			} else {
				rows = append(rows, r)
			}
			count(scope, "p99_us", b.P99Us, c.P99Us)
			count(scope, "npfs", float64(b.NPFs), float64(c.NPFs))
			count(scope, "evictions", float64(b.Evictions), float64(c.Evictions))
			count(scope, "shed", float64(b.Shed), float64(c.Shed))
			count(scope, "failovers", float64(b.Failovers), float64(c.Failovers))
		}
	}

	if len(cur.FaultAnatomy) > 0 {
		anBase := make(map[string]*anatomyRow, len(base.FaultAnatomy))
		for i := range base.FaultAnatomy {
			anBase[base.FaultAnatomy[i].Policy] = &base.FaultAnatomy[i]
		}
		count := func(scope, metric string, b, c float64) {
			d := relDelta(b, c)
			r := row{scope: scope, metric: metric,
				base: fmt.Sprintf("%.0f", b), cur: fmt.Sprintf("%.0f", c), delta: fmtDelta(d)}
			if math.Abs(d) > cfg.countTol {
				r.note = fmt.Sprintf("beyond count-tol %.2f", cfg.countTol)
				fail(r)
			} else {
				rows = append(rows, r)
			}
		}
		exactStr := func(scope, metric, b, c, note string) {
			r := row{scope: scope, metric: metric, base: b, cur: c}
			if c != b {
				r.note = note
				fail(r)
			} else {
				rows = append(rows, r)
			}
		}
		for i := range cur.FaultAnatomy {
			c := &cur.FaultAnatomy[i]
			scope := "an/" + c.Policy
			b, ok := anBase[c.Policy]
			if !ok {
				fail(row{scope: scope, metric: "presence", base: "-", cur: "present",
					delta: "new", note: "policy not in baseline"})
				continue
			}
			// Completed-fault and pending counts are lifecycle-accounting
			// invariants: a drifted count means a fault was minted, resumed,
			// or leaked differently — a behaviour change, not noise.
			r := row{scope: scope, metric: "faults",
				base: fmt.Sprint(b.Faults), cur: fmt.Sprint(c.Faults),
				delta: fmtDelta(relDelta(float64(b.Faults), float64(c.Faults)))}
			if c.Faults != b.Faults {
				r.note = "fault-count drift (deterministic given seed)"
				fail(r)
			} else {
				rows = append(rows, r)
			}
			r = row{scope: scope, metric: "pending",
				base: fmt.Sprint(b.Pending), cur: fmt.Sprint(c.Pending),
				delta: fmtDelta(relDelta(float64(b.Pending), float64(c.Pending)))}
			if c.Pending != b.Pending {
				r.note = "pending-fault drift (leaked or lost lifecycle)"
				fail(r)
			} else {
				rows = append(rows, r)
			}
			count(scope, "npfs", float64(b.NPFs), float64(c.NPFs))
			count(scope, "total_p50_us", b.TotalP50Us, c.TotalP50Us)
			count(scope, "total_p99_us", b.TotalP99Us, c.TotalP99Us)
			// The critical-path attribution is the experiment's headline
			// claim; a changed dominant stage/layer/host is a real shift in
			// where tail latency comes from.
			exactStr(scope, "crit_stage", b.CritStage, c.CritStage, "dominant tail stage changed")
			exactStr(scope, "crit_layer", b.CritLayer, c.CritLayer, "dominant tail layer changed")
			exactStr(scope, "crit_host", fmt.Sprint(b.CritHost), fmt.Sprint(c.CritHost),
				"dominant tail host changed")
			if dropped := c.DroppedEvents + c.DroppedRecords + c.DroppedSpans; dropped > 0 {
				r := row{scope: scope, metric: "dropped", base: "0",
					cur: fmt.Sprint(dropped), v: vWarn,
					note: "telemetry loss: anatomy is partial (raise the recorder bounds)"}
				rows = append(rows, r)
			}
		}
	}

	if cur.TraceDrops != nil {
		td := cur.TraceDrops
		if n := td.Spans + td.FaultEvents + td.FaultRecords; n > 0 {
			rows = append(rows, row{scope: "trace", metric: "dropped",
				base: "0", cur: fmt.Sprint(n), v: vWarn,
				note: fmt.Sprintf("telemetry loss across %d tracers (spans %d, fault ev %d, fault rec %d)",
					td.Tracers, td.Spans, td.FaultEvents, td.FaultRecords)})
		}
	}

	if len(cur.ScaleOut) > 0 {
		soBase := make(map[string]*scaleoutRow, len(base.ScaleOut))
		for i := range base.ScaleOut {
			soBase[base.ScaleOut[i].Transport] = &base.ScaleOut[i]
		}
		exact := func(scope, metric string, b, c uint64, note string) {
			r := row{scope: scope, metric: metric,
				base: fmt.Sprint(b), cur: fmt.Sprint(c),
				delta: fmtDelta(relDelta(float64(b), float64(c)))}
			if c != b {
				r.note = note
				fail(r)
			} else {
				rows = append(rows, r)
			}
		}
		count := func(scope, metric string, b, c float64) {
			d := relDelta(b, c)
			r := row{scope: scope, metric: metric,
				base: fmt.Sprintf("%.0f", b), cur: fmt.Sprintf("%.0f", c), delta: fmtDelta(d)}
			if math.Abs(d) > cfg.countTol {
				r.note = fmt.Sprintf("beyond count-tol %.2f", cfg.countTol)
				fail(r)
			} else {
				rows = append(rows, r)
			}
		}
		for i := range cur.ScaleOut {
			c := &cur.ScaleOut[i]
			scope := "so/" + c.Transport
			b, ok := soBase[c.Transport]
			if !ok {
				fail(row{scope: scope, metric: "presence", base: "-", cur: "present",
					delta: "new", note: "transport not in baseline"})
				continue
			}
			// The fleet shape and completed ops are correctness invariants:
			// a missing host or a lost client op is a bug, not drift.
			exact(scope, "hosts", uint64(b.Hosts), uint64(c.Hosts), "fleet-shape drift")
			exact(scope, "clients", uint64(b.Clients), uint64(c.Clients), "client-count drift")
			exact(scope, "ops", b.Ops, c.Ops, "completed-op drift (lost or duplicated ops)")
			r := row{scope: scope, metric: "fingerprint", base: b.Fingerprint, cur: c.Fingerprint}
			if c.Fingerprint != b.Fingerprint {
				r.note = "run fingerprint drift (deterministic given seed)"
				fail(r)
			} else {
				rows = append(rows, r)
			}
			count(scope, "bytes_per_host", float64(b.BytesPerHost), float64(c.BytesPerHost))
			count(scope, "npfs", float64(b.NPFs), float64(c.NPFs))
			count(scope, "evictions", float64(b.Evictions), float64(c.Evictions))
			tnBase := make(map[string]*scaleoutTenantRow, len(b.Tenants))
			for j := range b.Tenants {
				tnBase[b.Tenants[j].Tenant] = &b.Tenants[j]
			}
			for j := range c.Tenants {
				ct := &c.Tenants[j]
				tscope := scope + "/" + ct.Tenant
				bt, ok := tnBase[ct.Tenant]
				if !ok {
					fail(row{scope: tscope, metric: "presence", base: "-", cur: "present",
						delta: "new", note: "tenant not in baseline"})
					continue
				}
				exact(tscope, "ops", bt.Ops, ct.Ops, "tenant completed-op drift")
				exact(tscope, "lost", bt.Lost, ct.Lost, "lost-op drift")
				count(tscope, "p99_us", bt.P99Us, ct.P99Us)
			}
		}
	}

	if len(cur.Scaling) > 0 {
		scBase := make(map[string]*scalingRow, len(base.Scaling))
		for i := range base.Scaling {
			scBase[base.Scaling[i].Name] = &base.Scaling[i]
		}
		for i := range cur.Scaling {
			c := &cur.Scaling[i]
			scope := "scale/" + c.Name
			b, ok := scBase[c.Name]
			if !ok {
				fail(row{scope: scope, metric: "presence", base: "-", cur: "present",
					delta: "new", note: "scaling row not in baseline"})
				continue
			}
			// Thread budgets must not change what is simulated.
			r := row{scope: scope, metric: "events",
				base: fmt.Sprint(b.Events), cur: fmt.Sprint(c.Events),
				delta: fmtDelta(relDelta(float64(b.Events), float64(c.Events)))}
			if c.Events != b.Events {
				r.note = "event-count drift (deterministic given seed)"
				fail(r)
			} else {
				rows = append(rows, r)
			}
			timing(scope, "engines1_wall_ms", b.Wall1Ms, c.Wall1Ms)
			timing(scope, "engines8_wall_ms", b.Wall8Ms, c.Wall8Ms)
			timing(scope, "speedup", b.Speedup, c.Speedup)
		}
	}

	if cur.Series != nil {
		r := row{scope: "series", metric: "digest", cur: cur.Series.Digest, base: "-"}
		if base.Series != nil {
			r.base = base.Series.Digest
			if base.Series.Digest != cur.Series.Digest {
				// Digests legitimately change whenever any instrumented
				// subsystem changes behaviour; flag, don't fail.
				r.v = vWarn
				r.note = "series changed (informational)"
			}
		} else {
			r.note = "baseline has no series"
		}
		rows = append(rows, r)
	}
	return rows, pass
}

// writeTable renders the delta table with aligned columns.
func writeTable(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-10s %-16s %16s %16s %8s  %-4s %s\n",
		"scope", "metric", "baseline", "current", "delta", "", "")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-16s %16s %16s %8s  %-4s %s\n",
			r.scope, r.metric, r.base, r.cur, r.delta, r.v, r.note)
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
	countTol := fs.Float64("count-tol", 0.05, "hard-fail threshold on relative KV-ablation metric deltas (engines/events gate exactly)")
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

	base, err := readArtifact(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "npfstat: %v\n", err)
		return 2
	}
	cur, err := readArtifact(curPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "npfstat: %v\n", err)
		return 2
	}

	rows, pass := diff(base, cur, diffConfig{
		countTol: *countTol, timingTol: *timingTol, failOnTiming: *failOnTiming,
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
