// Package artifact declares the npfbench -json document once, for the
// writer (cmd/npfbench, internal/bench, npftrace anatomy -json) and the
// reader (cmd/npfstat) alike, and gates two documents against each other.
//
// Every field carries its gate in a struct tag, so adding a field to the
// artifact means choosing its gate in the same line:
//
//	gate:"key"     matches a row against the baseline's row with the same key
//	gate:"exact"   any difference fails
//	gate:"tol"     fails beyond Config.CountTol relative drift
//	gate:"timing"  warns beyond Config.TimingTol (fails with FailOnTiming)
//	gate:"nogrow"  fails when the value grows
//	gate:"changed" warns when the value changed
//	gate:"nonzero" warns when the current value is nonzero
//	gate:"-"       not gated
//
// A field that holds rows instead of a value carries scope:"prefix": its
// rows are diffed under the scope prefix/key. An optional note:"..." gives
// the failure text of a gated field, or the presence-failure text of a key.
package artifact

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Doc is the top-level -json document npfbench writes. Field order is the
// document's JSON order.
type Doc struct {
	GoVersion    string        `json:"go_version" gate:"-"`
	GOMAXPROCS   int           `json:"gomaxprocs" gate:"-"`
	Parallel     int           `json:"parallel" gate:"-"`
	Engines      int           `json:"engines" gate:"-"`
	Quick        bool          `json:"quick" gate:"-"`
	EngineBench  *EngineBench  `json:"engine_bench" scope:"engine"`
	Series       *Series       `json:"series,omitempty" scope:"series"`
	KV           []KVRow       `json:"kv,omitempty" scope:"kv"`
	FaultAnatomy []AnatomyRow  `json:"fault_anatomy,omitempty" scope:"an"`
	ScaleOut     []ScaleOutRow `json:"scale_out,omitempty" scope:"so"`
	Scaling      []ScalingRow  `json:"scaling,omitempty" scope:"scale"`
	TraceDrops   *TraceDrops   `json:"trace_drops,omitempty" scope:"trace"`
	Experiments  []ExpRow      `json:"experiments" scope:""`
}

// ExpRow is one experiment's row. Engines and events are a pure function
// of the seed for any -parallel or -engines value, so even a one-event
// delta is a behavioural change; wall clock is machine-load noise.
type ExpRow struct {
	Name         string  `json:"name" gate:"key" note:"experiment not in baseline"`
	WallMs       float64 `json:"wall_ms" gate:"timing"`
	Engines      int     `json:"engines" gate:"exact"`
	Events       uint64  `json:"events" gate:"exact" note:"event-count drift (deterministic given seed)"`
	EventsPerSec float64 `json:"events_per_sec" gate:"timing"`
}

// EngineBench summarizes the sim-engine hot-path microbenchmark
// (bench.EngineMicrobench). Steady state must not allocate.
type EngineBench struct {
	NsPerOp      float64 `json:"ns_per_op" gate:"timing"`
	AllocsPerOp  int64   `json:"allocs_per_op" gate:"nogrow" note:"allocation regression"`
	BytesPerOp   int64   `json:"bytes_per_op" gate:"-"`
	EventsPerSec float64 `json:"events_per_sec" gate:"-"`
}

// Series condenses the -series capture: the digest is the order-invariant
// fold of every engine's series digest, so two runs of the same seed agree
// on it for any -parallel N. It legitimately changes whenever any
// instrumented subsystem changes behaviour, so a change only warns.
type Series struct {
	Engines    int    `json:"engines" gate:"-"`
	Samples    int    `json:"samples" gate:"-"`
	Metrics    int    `json:"metrics" gate:"-"`
	IntervalNs int64  `json:"interval_ns" gate:"-"`
	Digest     string `json:"digest" gate:"changed" note:"series changed (informational)"`
}

// KVRow is one registration policy's row of the KV ablation. Every field is
// virtual-time deterministic; completed ops are a correctness invariant.
type KVRow struct {
	Policy    string  `json:"policy" gate:"key"`
	Ops       int     `json:"ops" gate:"exact" note:"completed-op drift (lost or duplicated client ops)"`
	P99Us     float64 `json:"p99_us" gate:"tol"`
	NPFs      uint64  `json:"npfs" gate:"tol"`
	Evictions uint64  `json:"evictions" gate:"tol"`
	Shed      uint64  `json:"shed" gate:"tol"`
	Failovers uint64  `json:"failovers" gate:"tol"`
}

// AnatomyRow is one registration policy's fault-anatomy row. Fault and
// pending counts are lifecycle-accounting invariants, and the critical-path
// attribution is the experiment's headline claim; dropped telemetry means
// a partial capture, not a behaviour change.
type AnatomyRow struct {
	Policy         string  `json:"policy" gate:"key"`
	Faults         int     `json:"faults" gate:"exact" note:"fault-count drift (deterministic given seed)"`
	Pending        int     `json:"pending" gate:"exact" note:"pending-fault drift (leaked or lost lifecycle)"`
	NPFs           uint64  `json:"npfs" gate:"tol"`
	TotalP50Us     float64 `json:"total_p50_us" gate:"tol"`
	TotalP99Us     float64 `json:"total_p99_us" gate:"tol"`
	CritStage      string  `json:"crit_stage" gate:"exact" note:"dominant tail stage changed"` // dominant stage of the p99 tail
	CritLayer      string  `json:"crit_layer" gate:"exact" note:"dominant tail layer changed"`
	CritHost       int64   `json:"crit_host" gate:"exact" note:"dominant tail host changed"`
	CritShare      float64 `json:"crit_share" gate:"-"` // mean share of tail-fault totals
	DroppedEvents  uint64  `json:"dropped_fault_events" gate:"nonzero" note:"telemetry loss: anatomy is partial (raise the recorder bounds)"`
	DroppedRecords uint64  `json:"dropped_fault_records" gate:"nonzero" note:"telemetry loss: anatomy is partial (raise the recorder bounds)"`
	DroppedSpans   uint64  `json:"dropped_spans" gate:"nonzero" note:"telemetry loss: anatomy is partial (raise the recorder bounds)"`
}

// ScaleOutRow is one transport's cluster-sweep fleet. The fleet shape,
// completed ops and the run fingerprint (which folds every per-tenant tail
// percentile) are exact for every -engines and -parallel value;
// bytes-per-host is the cheap-per-host-state budget.
type ScaleOutRow struct {
	Transport    string      `json:"transport" gate:"key"`
	Hosts        int         `json:"hosts" gate:"exact" note:"fleet-shape drift"`
	Clients      int         `json:"clients" gate:"exact" note:"client-count drift"`
	Ops          uint64      `json:"ops" gate:"exact" note:"completed-op drift (lost or duplicated ops)"`
	NPFs         uint64      `json:"npfs" gate:"tol"`
	Evictions    uint64      `json:"evictions" gate:"tol"`
	DropsFault   uint64      `json:"drops_fault" gate:"-"`
	BytesPerHost int64       `json:"bytes_per_host" gate:"tol"`
	Fingerprint  string      `json:"fingerprint" gate:"exact" note:"run fingerprint drift (deterministic given seed)"`
	Tenants      []TenantRow `json:"tenants" scope:""`
}

// TenantRow is one tenant of a scale-out fleet: the registration-policy
// spectrum as fleet-wide tail latency.
type TenantRow struct {
	Tenant   string  `json:"tenant" gate:"key"`
	Reg      string  `json:"reg" gate:"-"`
	Clients  int     `json:"clients" gate:"-"`
	Ops      uint64  `json:"ops" gate:"exact" note:"tenant completed-op drift"`
	Timeouts uint64  `json:"timeouts" gate:"-"`
	Lost     uint64  `json:"lost" gate:"exact" note:"lost-op drift"`
	P50Us    float64 `json:"p50_us" gate:"-"`
	P99Us    float64 `json:"p99_us" gate:"tol"`
}

// ScalingRow is one experiment's PDES speedup record (the "scale"
// experiment): the same partitioned run under a 1-thread and an 8-thread
// engine budget. Thread budgets must not change what is simulated, so the
// event count is exact; only wall clock may differ.
type ScalingRow struct {
	Name    string  `json:"name" gate:"key" note:"scaling row not in baseline"`
	Wall1Ms float64 `json:"engines1_wall_ms" gate:"timing"`
	Wall8Ms float64 `json:"engines8_wall_ms" gate:"timing"`
	Speedup float64 `json:"speedup" gate:"timing"`
	Events  uint64  `json:"events" gate:"exact" note:"event-count drift (deterministic given seed)"`
}

// TraceDrops summarises telemetry loss across every tracer the run built:
// spans dropped at MaxSpans plus fault lifecycle events/records dropped at
// the flight-recorder bounds. They never affect the simulation itself.
type TraceDrops struct {
	Tracers         int    `json:"tracers" gate:"-"`
	Spans           uint64 `json:"dropped_spans" gate:"nonzero" note:"telemetry loss: capture is partial"`
	FaultEvents     uint64 `json:"dropped_fault_events" gate:"nonzero" note:"telemetry loss: capture is partial"`
	FaultRecords    uint64 `json:"dropped_fault_records" gate:"nonzero" note:"telemetry loss: capture is partial"`
	PendingFaults   int    `json:"pending_faults" gate:"-"`
	CompletedFaults int    `json:"completed_faults" gate:"-"`
}

// Read decodes an artifact strictly: a field the schema does not declare,
// or trailing data, is an error rather than a silently half-read document.
func Read(path string) (*Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var d Doc
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("%s: trailing data after the artifact", path)
	}
	if len(d.Experiments) == 0 {
		return nil, fmt.Errorf("%s: no experiments (not an npfbench -json artifact?)", path)
	}
	return &d, nil
}
