package main

import (
	"reflect"

	"npf/internal/core"
	"npf/internal/iommu"
	"npf/internal/kv"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/tcp"
)

// counters are simulated statistics read from the layers, summed across
// the cluster. They repeat exactly from run to run. Zero means the
// workload does not exercise the count.
type counters struct {
	Events, Mail                   uint64 // sim
	Pkts, PktDrops                 uint64 // fabric
	RxDelivered, RxBackup, RxDrops uint64 // nic
	TxFaults                       uint64
	IotlbHits, IotlbMisses, Faults uint64 // iommu
	Minor, Major, Evictions        uint64 // mem
	Npfs, PinHits, PinMisses       uint64 // core
	ResolverTimeouts               uint64
	RcRetx, RnrNacks               uint64 // rc
	TcpRetx                        uint64 // tcp
	KvShed, KvFailovers            uint64 // kv
	Hosts, StateBytes              uint64 // topo
}

// Layer objects whose exported sim.Counter fields the walk sums. The IOTLB
// type is unexported, so it is named through the iommu.Unit field that
// holds it.
var (
	tDevice  = reflect.TypeOf(nic.Device{})
	tUnit    = reflect.TypeOf(iommu.Unit{})
	tIOTLB   = iotlbType()
	tSpace   = reflect.TypeOf(mem.AddressSpace{})
	tDriver  = reflect.TypeOf(core.Driver{})
	tPinDown = reflect.TypeOf(core.PinDownCache{})
	tHCA     = reflect.TypeOf(rc.HCA{})
	tStack   = reflect.TypeOf(tcp.Stack{})
	tKV      = reflect.TypeOf(kv.Service{})
	targets  = []reflect.Type{tDevice, tUnit, tIOTLB, tSpace, tDriver, tPinDown, tHCA, tStack, tKV}
)

func iotlbType() reflect.Type {
	f, ok := tUnit.FieldByName("iotlb")
	if !ok || f.Type.Kind() != reflect.Pointer {
		return nil
	}
	return f.Type.Elem()
}

// readCounters reads every counter of a built cluster.
func readCounters(inst instance) counters {
	var c counters
	inst.simStats(&c)
	walkCounters(inst, &c)
	return c
}

// since returns the counts accumulated after base was read. The topo
// fields describe the fleet's state, not activity, and are kept as read.
func (c counters) since(base counters) counters {
	d := c
	v, b := reflect.ValueOf(&d).Elem(), reflect.ValueOf(base)
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(v.Field(i).Uint() - b.Field(i).Uint())
	}
	d.Hosts, d.StateBytes = c.Hosts, c.StateBytes
	return d
}

// walkCounters sums the public counters of every layer object reachable
// from root. It reads through unexported fields (reflect permits reads),
// so clusters that keep their hosts private, like the topo fleet, are
// counted without an accessor in the program. Each object is counted once.
func walkCounters(root any, c *counters) {
	w := &walker{c: c, seen: map[ptrKey]bool{}, may: map[reflect.Type]bool{}}
	w.visit(reflect.ValueOf(root))
}

// ptrKey identifies a pointer by address and type: a struct and its first
// field share an address.
type ptrKey struct {
	addr uintptr
	t    reflect.Type
}

type walker struct {
	c    *counters
	seen map[ptrKey]bool
	may  map[reflect.Type]bool // type may (transitively) hold a target
}

// mayHold reports whether a value of type t can reach a target object
// without passing through an interface, func or chan; interfaces are
// always followed. Cycles assume true while in progress.
func (w *walker) mayHold(t reflect.Type) bool {
	if v, ok := w.may[t]; ok {
		return v
	}
	w.may[t] = true
	res := false
	for _, tt := range targets {
		if t == tt {
			res = true
		}
	}
	if !res {
		switch t.Kind() {
		case reflect.Interface:
			res = true
		case reflect.Pointer, reflect.Slice, reflect.Array:
			res = w.mayHold(t.Elem())
		case reflect.Map:
			res = w.mayHold(t.Key()) || w.mayHold(t.Elem())
		case reflect.Struct:
			for i := 0; i < t.NumField() && !res; i++ {
				res = w.mayHold(t.Field(i).Type)
			}
		}
	}
	w.may[t] = res
	return res
}

func (w *walker) visit(v reflect.Value) {
	if !v.IsValid() || !w.mayHold(v.Type()) {
		return
	}
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			w.visit(v.Elem())
		}
	case reflect.Pointer:
		k := ptrKey{v.Pointer(), v.Type()}
		if v.IsNil() || w.seen[k] {
			return
		}
		w.seen[k] = true
		w.visit(v.Elem())
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			w.visit(v.Index(i))
		}
	case reflect.Map:
		it := v.MapRange()
		for it.Next() {
			w.visit(it.Key())
			w.visit(it.Value())
		}
	case reflect.Struct:
		w.count(v)
		for i := 0; i < v.NumField(); i++ {
			w.visit(v.Field(i))
		}
	}
}

// count adds one target object's counters.
func (w *walker) count(v reflect.Value) {
	c := w.c
	switch v.Type() {
	case tDevice:
		c.RxDelivered += n(v, "RxDelivered")
		c.RxBackup += n(v, "RxToBackup")
		c.RxDrops += n(v, "RxDroppedFault")
		c.TxFaults += n(v, "TxFaults")
	case tUnit:
		c.Faults += n(v, "Faults")
	case tIOTLB:
		c.IotlbHits += n(v, "Hits")
		c.IotlbMisses += n(v, "Misses")
	case tSpace:
		c.Minor += n(v, "MinorFaults")
		c.Major += n(v, "MajorFaults")
		c.Evictions += n(v, "Evicted")
	case tDriver:
		c.Npfs += n(v, "NPFs")
		c.ResolverTimeouts += n(v, "ResolverTimeouts")
	case tPinDown:
		c.PinHits += n(v, "Hits")
		c.PinMisses += n(v, "Misses")
	case tHCA:
		c.RcRetx += n(v, "Retransmits")
		c.RnrNacks += n(v, "RNRNacks")
	case tStack:
		c.TcpRetx += n(v, "Retransmits")
	case tKV:
		c.KvShed += n(v, "Shed")
		c.KvFailovers += n(v, "Failovers")
	}
}

// n reads the sim.Counter field name of struct v; a missing field reads 0.
func n(v reflect.Value, name string) uint64 {
	f := v.FieldByName(name)
	if !f.IsValid() {
		return 0
	}
	if f = f.FieldByName("N"); !f.IsValid() {
		return 0
	}
	return f.Uint()
}
