package artifact

import (
	"fmt"
	"math"
	"reflect"
	"strings"
)

// Verdict classifies one compared metric.
type Verdict int

const (
	OK Verdict = iota
	Warn
	Fail
)

func (v Verdict) String() string {
	switch v {
	case Warn:
		return "warn"
	case Fail:
		return "FAIL"
	}
	return "ok"
}

// Row is one line of the delta table.
type Row struct {
	Scope   string // section prefix and row key, e.g. "kv/odp"; "engine" for a keyless section
	Metric  string // the field's JSON name
	Base    string
	Cur     string
	Delta   string
	Verdict Verdict
	Note    string
}

// Config holds the gate thresholds.
type Config struct {
	CountTol     float64 // relative drift a tol field may show before it fails
	TimingTol    float64 // relative drift a timing field may show before it warns
	FailOnTiming bool    // promote timing warnings to failures
}

// Diff compares cur against base field by field, as each field's gate tag
// says, and returns the delta table plus the overall pass. A section is
// compared only when cur has it, so sections only the baseline carries are
// ignored; a row of cur whose key the baseline lacks fails.
func Diff(base, cur *Doc, cfg Config) ([]Row, bool) {
	d := &differ{cfg: cfg, pass: true}
	d.fields("", reflect.ValueOf(base).Elem(), reflect.ValueOf(cur).Elem())
	return d.rows, d.pass
}

type differ struct {
	cfg  Config
	rows []Row
	pass bool
}

func (d *differ) add(r Row, v Verdict) {
	r.Verdict = v
	if v == Fail {
		d.pass = false
	}
	d.rows = append(d.rows, r)
}

// fields gates every field of one struct and descends into its sections.
func (d *differ) fields(scope string, b, c reflect.Value) {
	t := c.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if prefix, ok := f.Tag.Lookup("scope"); ok {
			d.section(join(scope, prefix), b.Field(i), c.Field(i))
		} else {
			d.field(scope, f, b.Field(i), c.Field(i))
		}
	}
}

// section diffs a keyless section (a struct pointer, compared against the
// zero value when the baseline lacks it) or a slice of keyed rows.
func (d *differ) section(scope string, b, c reflect.Value) {
	if c.Kind() == reflect.Pointer {
		if c.IsNil() {
			return
		}
		bv := reflect.Zero(c.Type().Elem())
		if !b.IsNil() {
			bv = b.Elem()
		}
		d.fields(scope, bv, c.Elem())
		return
	}
	key := keyField(c.Type().Elem())
	for i := 0; i < c.Len(); i++ {
		cr := c.Index(i)
		k := cr.FieldByIndex(key.Index).String()
		rs := join(scope, k)
		br, ok := findRow(b, key, k)
		if !ok {
			note := key.Tag.Get("note")
			if note == "" {
				note = jsonName(key) + " not in baseline"
			}
			d.add(Row{Scope: rs, Metric: "presence", Base: "-", Cur: "present", Delta: "new", Note: note}, Fail)
			continue
		}
		d.fields(rs, br, cr)
	}
}

// field gates one value.
func (d *differ) field(scope string, f reflect.StructField, b, c reflect.Value) {
	r := Row{Scope: scope, Metric: jsonName(f), Base: fmt.Sprint(b.Interface()), Cur: fmt.Sprint(c.Interface())}
	note, v := f.Tag.Get("note"), OK
	switch gate := f.Tag.Get("gate"); gate {
	case "-", "key":
		return
	case "exact":
		if c.Kind() != reflect.String {
			r.Delta = fmtDelta(relDelta(num(b), num(c)))
		}
		if b.Interface() != c.Interface() {
			r.Note, v = note, Fail
		}
	case "tol":
		delta := relDelta(num(b), num(c))
		r.Base, r.Cur, r.Delta = fmt.Sprintf("%.0f", num(b)), fmt.Sprintf("%.0f", num(c)), fmtDelta(delta)
		if math.Abs(delta) > d.cfg.CountTol {
			r.Note, v = fmt.Sprintf("beyond count-tol %.2f", d.cfg.CountTol), Fail
		}
	case "timing":
		delta := relDelta(num(b), num(c))
		r.Base, r.Cur, r.Delta = fmt.Sprintf("%.1f", num(b)), fmt.Sprintf("%.1f", num(c)), fmtDelta(delta)
		if math.Abs(delta) > d.cfg.TimingTol {
			r.Note, v = "timing (load-dependent)", Warn
			if d.cfg.FailOnTiming {
				v = Fail
			}
		}
	case "nogrow":
		r.Delta = fmtDelta(relDelta(num(b), num(c)))
		if num(c) > num(b) {
			r.Note, v = note, Fail
		}
	case "changed":
		if b.IsZero() {
			r.Base, r.Note = "-", "not in baseline"
		} else if b.Interface() != c.Interface() {
			r.Note, v = note, Warn
		}
	case "nonzero":
		if c.IsZero() {
			return
		}
		r.Note, v = note, Warn
	default:
		panic(fmt.Sprintf("artifact: %s.%s: unknown gate %q", f.Type, f.Name, gate))
	}
	d.add(r, v)
}

// keyField returns the gate:"key" field of a row type.
func keyField(t reflect.Type) reflect.StructField {
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).Tag.Get("gate") == "key" {
			return t.Field(i)
		}
	}
	panic("artifact: row type " + t.Name() + " has no key field")
}

// findRow returns the row of rows whose key field equals k.
func findRow(rows reflect.Value, key reflect.StructField, k string) (reflect.Value, bool) {
	for i := 0; i < rows.Len(); i++ {
		if r := rows.Index(i); r.FieldByIndex(key.Index).String() == k {
			return r, true
		}
	}
	return reflect.Value{}, false
}

func jsonName(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return name
}

// join appends part to scope with a slash; either may be empty.
func join(scope, part string) string {
	if scope == "" || part == "" {
		return scope + part
	}
	return scope + "/" + part
}

func num(v reflect.Value) float64 {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		return float64(v.Int())
	case reflect.Uint64:
		return float64(v.Uint())
	case reflect.Float64:
		return v.Float()
	}
	panic("artifact: not a number: " + v.Type().String())
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
