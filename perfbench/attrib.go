package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// layers are the program's modules, npf/internal/<layer>. Profile samples
// are charged to the innermost frame of one of these packages; samples
// with none go to gcBucket or otherBucket.
var layers = []string{"sim", "fabric", "nic", "iommu", "mem", "core", "rc", "tcp",
	"apps", "kv", "workload", "topo", "trace"}

const (
	gcBucket    = "runtime.gc"
	otherBucket = "runtime.other"
	layerPrefix = "npf/internal/"
)

// buckets lists every attribution bucket in report order.
func buckets() []string { return append(append([]string{}, layers...), gcBucket, otherBucket) }

// gcFrames are name prefixes of runtime functions that do collector work:
// background mark workers, mark assists, sweeping and scavenging.
var gcFrames = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scan", "runtime.sweep", "runtime.greyobject",
	"runtime._GC", "runtime.wbBufFlush"}

// layerOf returns the layer a function name belongs to, or "".
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, layerPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return ""
}

// charge returns the bucket for one stack, given leaf first: the innermost
// layer frame wins, so a runtime map access or malloc made by the IOTLB is
// charged to iommu. Stacks without a layer frame are GC work if any frame
// is collector code, and runtime.other otherwise.
func charge(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		for _, p := range gcFrames {
			if strings.HasPrefix(fn, p) {
				return gcBucket
			}
		}
	}
	return otherBucket
}

// fold is a weight per bucket.
type fold map[string]float64

func (f fold) add(stack []string, w float64) { f[charge(stack)] += w }

func (f fold) total() float64 {
	t := 0.0
	for _, v := range f {
		t += v
	}
	return t
}

// shares scales the fold so its buckets sum to total: each bucket gets
// total times its share of the fold's weight. An empty fold charges
// everything to runtime.other.
func (f fold) shares(total float64) map[string]float64 {
	out := make(map[string]float64, len(f))
	for _, b := range buckets() {
		out[b] = 0
	}
	sum := f.total()
	if sum == 0 {
		out[otherBucket] = total
		return out
	}
	for b, v := range f {
		out[b] = total * v / sum
	}
	return out
}

// ---------------------------------------------------------------------------
// Allocation records (runtime.MemProfile, sampled at MemProfileRate 1).

// allocSnap is the cumulative allocation count and bytes per stack.
type allocSnap map[[32]uintptr][2]int64

func snapAllocs() allocSnap {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	s := make(allocSnap, len(recs))
	for _, r := range recs {
		v := s[r.Stack0]
		s[r.Stack0] = [2]int64{v[0] + r.AllocObjects, v[1] + r.AllocBytes}
	}
	return s
}

// foldAllocDelta charges the allocations made between two snapshots into
// objs and bytes.
func foldAllocDelta(before, after allocSnap, objs, bytes fold) {
	for k, v := range after {
		b := before[k]
		do, db := v[0]-b[0], v[1]-b[1]
		if do == 0 && db == 0 {
			continue
		}
		stack := symbolize(k[:])
		objs.add(stack, float64(do))
		bytes.add(stack, float64(db))
	}
}

// symbolize expands a zero-terminated stack of return PCs into function
// names, leaf first, inlined frames included.
func symbolize(pcs []uintptr) []string {
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	var out []string
	fr := runtime.CallersFrames(pcs)
	for {
		f, more := fr.Next()
		out = append(out, f.Function)
		if !more {
			return out
		}
	}
}

// ---------------------------------------------------------------------------
// CPU profiles (runtime/pprof protobuf, decoded with the stdlib alone).

// foldCPUProfile charges every sample of a gzipped pprof CPU profile by its
// CPU-time value.
func foldCPUProfile(gz []byte, f fold) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	vi := p.sampleTypes - 1 // cpu/nanoseconds follows samples/count
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			return errors.New("cpu profile: sample without a cpu value")
		}
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locs[id] {
				stack = append(stack, p.strings[p.funcs[fid]])
			}
		}
		f.add(stack, float64(s.values[vi]))
	}
	return nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type pprofile struct {
	sampleTypes int
	samples     []profSample
	locs        map[uint64][]uint64 // location id -> function ids, innermost first
	funcs       map[uint64]int64    // function id -> name string index
	strings     []string
}

// decodeProfile reads the fields of profile.proto the fold needs.
func decodeProfile(b []byte) (*pprofile, error) {
	p := &pprofile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 1: // sample_type
			p.sampleTypes++
		case 2: // sample
			var s profSample
			err := eachField(sub, func(n, wt int, v uint64, sb []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, wt, v, sb)
				case 2:
					for _, x := range appendPacked(nil, wt, v, sb) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(sub, func(n, _ int, v uint64, sb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(sb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(sub, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.funcs {
		if name < 0 || int(name) >= len(p.strings) {
			return nil, errors.New("function name out of string table")
		}
	}
	for _, s := range p.samples {
		for _, id := range s.locs {
			for _, fid := range p.locs[id] {
				if _, ok := p.funcs[fid]; !ok {
					return nil, fmt.Errorf("location %d names unknown function %d", id, fid)
				}
			}
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field given either unpacked (one
// varint) or packed (a length-delimited run of varints).
func appendPacked(dst []uint64, wire int, v uint64, sub []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst
}

// eachField walks a protobuf message, passing varints as v and
// length-delimited fields as sub.
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
