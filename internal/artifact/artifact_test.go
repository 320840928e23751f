package artifact

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// baselines are the committed artifacts scripts/ci.sh gates on.
var baselines = []string{"../../BENCH_pr10.json", "../../BENCH_pr8.json"}

func TestBaselinesDecodeStrictly(t *testing.T) {
	for _, path := range baselines {
		if _, err := Read(path); err != nil {
			t.Errorf("strict decode: %v", err)
		}
	}
}

func TestBaselinesSelfDiffClean(t *testing.T) {
	for _, path := range baselines {
		d, err := Read(path)
		if err != nil {
			t.Fatal(err)
		}
		rows, pass := Diff(d, d, Config{CountTol: 0.05, TimingTol: 0.5})
		if !pass {
			t.Errorf("%s: self-diff failed", path)
		}
		for _, r := range rows {
			if r.Verdict != OK {
				t.Errorf("%s: %s/%s verdict %v, want ok", path, r.Scope, r.Metric, r.Verdict)
			}
		}
	}
}

// TestEveryFieldGated walks the schema from Doc: every field names a known
// gate or is a scope holding further rows, every row slice has a key, so a
// new field cannot go ungated by omission.
func TestEveryFieldGated(t *testing.T) {
	gates := map[string]bool{"key": true, "exact": true, "tol": true, "timing": true,
		"nogrow": true, "changed": true, "nonzero": true, "-": true}
	var walk func(t *testing.T, typ reflect.Type)
	walk = func(t *testing.T, typ reflect.Type) {
		keys := 0
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			gate, hasGate := f.Tag.Lookup("gate")
			_, hasScope := f.Tag.Lookup("scope")
			switch {
			case hasGate == hasScope:
				t.Errorf("%s.%s: want exactly one of a gate or a scope tag", typ.Name(), f.Name)
			case hasScope:
				elem := f.Type
				if elem.Kind() == reflect.Pointer || elem.Kind() == reflect.Slice {
					elem = elem.Elem()
				}
				if elem.Kind() != reflect.Struct {
					t.Errorf("%s.%s: scope on a non-row type %s", typ.Name(), f.Name, f.Type)
					continue
				}
				if f.Type.Kind() == reflect.Slice {
					keyField(elem) // panics without a key
				}
				walk(t, elem)
			case !gates[gate]:
				t.Errorf("%s.%s: unknown gate %q", typ.Name(), f.Name, gate)
			case gate == "key":
				keys++
				if f.Type.Kind() != reflect.String {
					t.Errorf("%s.%s: key must be a string", typ.Name(), f.Name)
				}
			}
			if jsonName(f) == "" {
				t.Errorf("%s.%s: no json name", typ.Name(), f.Name)
			}
		}
		if keys > 1 {
			t.Errorf("%s: %d key fields", typ.Name(), keys)
		}
	}
	walk(t, reflect.TypeOf(Doc{}))
}

func TestReadRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"unknown top-level": `{"experiments":[{"name":"fig3","events":1}],"mystery":1}`,
		"unknown row field": `{"experiments":[{"name":"fig3","events":1,"evnets":2}]}`,
		"trailing data":     `{"experiments":[{"name":"fig3","events":1}]} {}`,
	} {
		p := filepath.Join(dir, "a.json")
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(p); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if !strings.Contains(err.Error(), p) {
			t.Errorf("%s: error %q does not name the file", name, err)
		}
	}
}

func TestRelDelta(t *testing.T) {
	if d := relDelta(100, 110); math.Abs(d-0.1) > 1e-12 {
		t.Fatalf("relDelta = %v, want 0.1", d)
	}
	if d := relDelta(0, 0); d != 0 {
		t.Fatalf("relDelta(0,0) = %v, want 0", d)
	}
	if d := relDelta(0, 5); !math.IsInf(d, 1) {
		t.Fatalf("relDelta(0,5) = %v, want +Inf", d)
	}
}
