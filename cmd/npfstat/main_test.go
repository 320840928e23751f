package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"npf/internal/artifact"
)

func mkArtifact(events uint64, engines int, wall float64, allocs int64) *artifact.Doc {
	a := &artifact.Doc{}
	a.EngineBench = &artifact.EngineBench{NsPerOp: 14, AllocsPerOp: allocs}
	a.Experiments = []artifact.ExpRow{{
		Name: "fig3", WallMs: wall, Engines: engines, Events: events, EventsPerSec: 1e6,
	}}
	return a
}

var defCfg = artifact.Config{CountTol: 0.05, TimingTol: 0.5}

func TestDiffPassesOnIdenticalRuns(t *testing.T) {
	base := mkArtifact(1000, 3, 50, 0)
	cur := mkArtifact(1000, 3, 50, 0)
	rows, pass := artifact.Diff(base, cur, defCfg)
	if !pass {
		t.Fatalf("identical runs fail:\n%+v", rows)
	}
	for _, r := range rows {
		if r.Verdict != artifact.OK {
			t.Fatalf("row %s/%s verdict %v, want ok", r.Scope, r.Metric, r.Verdict)
		}
	}
}

func TestDiffHardFailures(t *testing.T) {
	base := mkArtifact(1000, 3, 50, 0)
	for name, cur := range map[string]*artifact.Doc{
		"event drift":      mkArtifact(1100, 3, 50, 0),
		"engine mismatch":  mkArtifact(1000, 4, 50, 0),
		"alloc regression": mkArtifact(1000, 3, 50, 2),
	} {
		if _, pass := artifact.Diff(base, cur, defCfg); pass {
			t.Fatalf("%s: expected hard failure", name)
		}
	}
	// Unknown experiment: structural drift.
	cur := mkArtifact(1000, 3, 50, 0)
	cur.Experiments[0].Name = "fig99"
	if _, pass := artifact.Diff(base, cur, defCfg); pass {
		t.Fatal("unknown experiment passed the gate")
	}
}

func TestDiffTimingOnlyWarns(t *testing.T) {
	base := mkArtifact(1000, 3, 50, 0)
	cur := mkArtifact(1000, 3, 500, 0) // 10x wall clock: noisy machine
	rows, pass := artifact.Diff(base, cur, defCfg)
	if !pass {
		t.Fatal("timing delta hard-failed without -fail-on-timing")
	}
	warned := false
	for _, r := range rows {
		if r.Metric == "wall_ms" && r.Verdict == artifact.Warn {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("no timing warning emitted:\n%+v", rows)
	}
	if _, pass := artifact.Diff(base, cur, artifact.Config{CountTol: 0.05, TimingTol: 0.5, FailOnTiming: true}); pass {
		t.Fatal("-fail-on-timing did not promote the warning")
	}
}

func TestDiffEventsGateExactly(t *testing.T) {
	// Event counts are a pure function of the seed — conservation across
	// -parallel and -engines values is part of the determinism contract —
	// so even a single-event delta is a hard failure, count-tol or not.
	base := mkArtifact(1000, 3, 50, 0)
	cur := mkArtifact(1001, 3, 50, 0)
	if _, pass := artifact.Diff(base, cur, defCfg); pass {
		t.Fatal("one-event drift passed the gate")
	}
	if _, pass := artifact.Diff(base, cur, artifact.Config{CountTol: 0.9, TimingTol: 0.5}); pass {
		t.Fatal("count-tol loosened the exact events gate")
	}
}

func mkScaleArtifact(events uint64, w1, w8 float64) *artifact.Doc {
	a := mkArtifact(1000, 3, 50, 0)
	a.Scaling = []artifact.ScalingRow{{
		Name: "fig4a", Wall1Ms: w1, Wall8Ms: w8, Speedup: w1 / w8, Events: events,
	}}
	return a
}

func TestDiffScalingGate(t *testing.T) {
	base := mkScaleArtifact(5_000_000, 8000, 2000)
	if _, pass := artifact.Diff(base, mkScaleArtifact(5_000_000, 8000, 2000), defCfg); !pass {
		t.Fatal("identical scaling rows failed the gate")
	}
	// Wall clock and speedup are machine-load noise: warn only.
	rows, pass := artifact.Diff(base, mkScaleArtifact(5_000_000, 16000, 2000), defCfg)
	if !pass {
		t.Fatal("scaling wall-clock delta hard-failed")
	}
	warned := false
	for _, r := range rows {
		if r.Scope == "scale/fig4a" && r.Verdict == artifact.Warn {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("no scaling timing warning emitted:\n%+v", rows)
	}
	// The event count is the same simulation at two thread budgets: exact.
	if _, pass := artifact.Diff(base, mkScaleArtifact(5_000_001, 8000, 2000), defCfg); pass {
		t.Fatal("scaling event drift passed the gate")
	}
	// A scaling row the baseline has never seen is structural drift.
	cur := mkScaleArtifact(5_000_000, 8000, 2000)
	cur.Scaling[0].Name = "table9"
	if _, pass := artifact.Diff(base, cur, defCfg); pass {
		t.Fatal("unknown scaling row passed the gate")
	}
}

func mkKVArtifact(ops int, npfs, evicts, failovers uint64) *artifact.Doc {
	a := mkArtifact(1000, 3, 50, 0)
	a.KV = []artifact.KVRow{{
		Policy: "odp", Ops: ops, P99Us: 7000,
		NPFs: npfs, Evictions: evicts, Failovers: failovers,
	}}
	return a
}

func TestDiffKVGate(t *testing.T) {
	base := mkKVArtifact(1200, 1300, 2000, 0)
	if _, pass := artifact.Diff(base, mkKVArtifact(1200, 1300, 2000, 0), defCfg); !pass {
		t.Fatal("identical KV rows failed the gate")
	}
	// In-tolerance count drift passes; ops drift never does.
	if _, pass := artifact.Diff(base, mkKVArtifact(1200, 1330, 2040, 0), defCfg); !pass {
		t.Fatal("in-tolerance KV count drift failed the gate")
	}
	for name, cur := range map[string]*artifact.Doc{
		"lost ops":           mkKVArtifact(1199, 1300, 2000, 0),
		"npf drift":          mkKVArtifact(1200, 2600, 2000, 0),
		"eviction drift":     mkKVArtifact(1200, 1300, 100, 0),
		"spurious failovers": mkKVArtifact(1200, 1300, 2000, 3),
	} {
		if _, pass := artifact.Diff(base, cur, defCfg); pass {
			t.Fatalf("%s: expected hard failure", name)
		}
	}
	// A policy the baseline has never seen is structural drift.
	cur := mkKVArtifact(1200, 1300, 2000, 0)
	cur.KV[0].Policy = "mystery"
	if _, pass := artifact.Diff(base, cur, defCfg); pass {
		t.Fatal("unknown KV policy passed the gate")
	}
	// A baseline without a KV section gates nothing but also hides nothing:
	// every current row is "not in baseline".
	if _, pass := artifact.Diff(mkArtifact(1000, 3, 50, 0), cur, defCfg); pass {
		t.Fatal("KV rows passed against a KV-less baseline")
	}
}

func mkAnatomyArtifact(faults, pending int, p99 float64, stage string) *artifact.Doc {
	a := mkArtifact(1000, 3, 50, 0)
	a.FaultAnatomy = []artifact.AnatomyRow{{
		Policy: "odp", Faults: faults, Pending: pending, NPFs: 1300,
		TotalP50Us: 250, TotalP99Us: p99,
		CritStage: stage, CritLayer: "hw", CritHost: 2, CritShare: 0.9,
	}}
	return a
}

func TestDiffAnatomyGate(t *testing.T) {
	base := mkAnatomyArtifact(1300, 2, 7000, "fault-report")
	if _, pass := artifact.Diff(base, mkAnatomyArtifact(1300, 2, 7000, "fault-report"), defCfg); !pass {
		t.Fatal("identical anatomy rows failed the gate")
	}
	// Percentiles drift within -count-tol; fault accounting never does.
	if _, pass := artifact.Diff(base, mkAnatomyArtifact(1300, 2, 7200, "fault-report"), defCfg); !pass {
		t.Fatal("in-tolerance anatomy p99 drift failed the gate")
	}
	for name, cur := range map[string]*artifact.Doc{
		"fault-count drift": mkAnatomyArtifact(1299, 2, 7000, "fault-report"),
		"leaked pending":    mkAnatomyArtifact(1300, 3, 7000, "fault-report"),
		"p99 blowup":        mkAnatomyArtifact(1300, 2, 14000, "fault-report"),
		"crit-path shift":   mkAnatomyArtifact(1300, 2, 7000, "driver"),
	} {
		if _, pass := artifact.Diff(base, cur, defCfg); pass {
			t.Fatalf("%s: expected hard failure", name)
		}
	}
	// Dropped telemetry warns but does not fail.
	cur := mkAnatomyArtifact(1300, 2, 7000, "fault-report")
	cur.FaultAnatomy[0].DroppedEvents = 5
	cur.TraceDrops = &artifact.TraceDrops{Tracers: 2, FaultEvents: 5}
	rows, pass := artifact.Diff(base, cur, defCfg)
	if !pass {
		t.Fatal("dropped-telemetry warning hard-failed the gate")
	}
	warns := 0
	for _, r := range rows {
		if r.Verdict == artifact.Warn && strings.HasPrefix(r.Metric, "dropped") {
			warns++
		}
	}
	if warns != 2 {
		t.Fatalf("got %d dropped-telemetry warnings, want 2 (row + summary):\n%+v", warns, rows)
	}
}

func TestWriteTableAligned(t *testing.T) {
	var b bytes.Buffer
	writeTable(&b, []artifact.Row{{Scope: "fig3", Metric: "events", Base: "10", Cur: "10", Delta: "+0.0%", Verdict: artifact.OK}})
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "scope") {
		t.Fatalf("table shape:\n%s", b.String())
	}
}

// TestRunEndToEnd drives the CLI surface: diff two artifact files on disk
// and check the exit codes.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := `{"engine_bench":{"ns_per_op":14,"allocs_per_op":0},"experiments":[{"name":"fig3","wall_ms":50,"engines":3,"events":1000,"events_per_sec":1e6}]}`
	drifted := `{"engine_bench":{"ns_per_op":14,"allocs_per_op":0},"experiments":[{"name":"fig3","wall_ms":50,"engines":3,"events":2000,"events_per_sec":1e6}]}`
	base := write("base.json", good)
	same := write("same.json", good)
	bad := write("bad.json", drifted)

	if code := run([]string{base, same}); code != 0 {
		t.Fatalf("identical diff exit = %d, want 0", code)
	}
	if code := run([]string{"-baseline", base, same}); code != 0 {
		t.Fatalf("-baseline spelling exit = %d, want 0", code)
	}
	if code := run([]string{base, bad}); code != 1 {
		t.Fatalf("drifted diff exit = %d, want 1", code)
	}
	if code := run([]string{base}); code != 2 {
		t.Fatalf("usage error exit = %d, want 2", code)
	}
	if code := run([]string{base, write("empty.json", `{}`)}); code != 2 {
		t.Fatalf("malformed artifact exit = %d, want 2", code)
	}
	unknown := write("unknown.json", `{"experiments":[{"name":"fig3","engines":3,"events":1000,"mystery":1}]}`)
	if code := run([]string{base, unknown}); code != 2 {
		t.Fatalf("unknown-field artifact exit = %d, want 2", code)
	}

	series := write("series.csv", "# series interval_ns=1000 samples=2 metrics=1\ntime_us,m.a\n0,1\n1,2\n")
	if code := run([]string{"-render", series}); code != 0 {
		t.Fatalf("render exit = %d, want 0", code)
	}
	if code := run([]string{"-render", filepath.Join(dir, "missing.csv")}); code != 2 {
		t.Fatalf("render missing-file exit = %d, want 2", code)
	}
}

func mkScaleoutArtifact(bytesPerHost int64, fp string, lost uint64) *artifact.Doc {
	a := mkArtifact(1000, 3, 50, 0)
	a.ScaleOut = []artifact.ScaleOutRow{{
		Transport: "ud", Hosts: 1008, Clients: 101000, Ops: 500000,
		NPFs: 4000, Evictions: 9000, BytesPerHost: bytesPerHost, Fingerprint: fp,
		Tenants: []artifact.TenantRow{{
			Tenant: "web", Reg: "odp", Clients: 101000, Ops: 500000, Lost: lost, P99Us: 900,
		}},
	}}
	return a
}

func TestDiffScaleoutGate(t *testing.T) {
	base := mkScaleoutArtifact(40000, "00000000deadbeef", 0)
	if _, pass := artifact.Diff(base, mkScaleoutArtifact(40000, "00000000deadbeef", 0), defCfg); !pass {
		t.Fatal("identical scale-out rows failed the gate")
	}
	// Bytes-per-host is a budget held within -count-tol.
	if _, pass := artifact.Diff(base, mkScaleoutArtifact(41000, "00000000deadbeef", 0), defCfg); !pass {
		t.Fatal("in-tolerance bytes_per_host drift failed the gate")
	}
	for name, cur := range map[string]*artifact.Doc{
		"fingerprint drift": mkScaleoutArtifact(40000, "00000000deadbeee", 0),
		"tenant lost drift": mkScaleoutArtifact(40000, "00000000deadbeef", 1),
	} {
		if _, pass := artifact.Diff(base, cur, defCfg); pass {
			t.Fatalf("%s: expected hard failure", name)
		}
	}
	// A tenant or transport the baseline has never seen is structural drift.
	cur := mkScaleoutArtifact(40000, "00000000deadbeef", 0)
	cur.ScaleOut[0].Tenants[0].Tenant = "mystery"
	if _, pass := artifact.Diff(base, cur, defCfg); pass {
		t.Fatal("unknown tenant passed the gate")
	}
	cur = mkScaleoutArtifact(40000, "00000000deadbeef", 0)
	cur.ScaleOut[0].Transport = "carrier-pigeon"
	if _, pass := artifact.Diff(base, cur, defCfg); pass {
		t.Fatal("unknown transport passed the gate")
	}
}
