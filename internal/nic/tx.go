package nic

import (
	"npf/internal/fabric"
	"npf/internal/mem"
)

// TxDesc is one send descriptor: read Len bytes from Buffer and transmit
// them to (Dst, DstFlow). Payload is the simulated wire content; Cookie is
// returned in the TX completion so the stack can recycle the buffer.
type TxDesc struct {
	Buffer  mem.VAddr
	Len     int
	Dst     fabric.NodeID
	DstFlow fabric.FlowID
	Payload any
	Cookie  any
}

// TxQueue is the send side of an IOchannel. Descriptors are processed in
// order; a send-side NPF suspends the queue until the driver resolves it
// (§4: "when a sender encounters an NPF, it can simply stop sending and
// wait until the NPF is resolved, as the faulting data is local").
type TxQueue struct {
	ch *Channel
	// queue[head:] are the descriptors awaiting transmission; the consumed
	// prefix is reclaimed when the queue drains or Post needs room.
	queue     []TxDesc
	head      int
	suspended bool

	// completions collects TX completions until the coalesced interrupt
	// (irq, bound once) hands them to the handler; spare is the buffer the
	// previous interrupt handed out, reused once that handler returned.
	compPending bool
	completions []TxCompletion
	spare       []TxCompletion
	irq         func()
}

func newTxQueue(ch *Channel) *TxQueue {
	q := &TxQueue{ch: ch}
	q.irq = q.interrupt
	return q
}

// Suspended reports whether the queue is stalled on an NPF.
func (q *TxQueue) Suspended() bool { return q.suspended }

// QueuedPackets reports descriptors awaiting transmission.
func (q *TxQueue) QueuedPackets() int { return len(q.queue) - q.head }

// Post enqueues descriptors for transmission.
func (q *TxQueue) Post(descs ...TxDesc) {
	if q.head > 0 && len(q.queue)+len(descs) > cap(q.queue) {
		// Slide the waiting descriptors down rather than grow the backing
		// array past the consumed prefix.
		n := copy(q.queue, q.queue[q.head:])
		clear(q.queue[n:])
		q.queue = q.queue[:n]
		q.head = 0
	}
	q.queue = append(q.queue, descs...)
	q.kick()
}

// pop consumes the descriptor at the head of the queue.
func (q *TxQueue) pop() {
	q.queue[q.head] = TxDesc{}
	q.head++
	if q.head == len(q.queue) {
		q.queue = q.queue[:0]
		q.head = 0
	}
}

// kick drains the queue until it is empty or a fault suspends it.
func (q *TxQueue) kick() {
	dev := q.ch.Dev
	for !q.suspended && q.head < len(q.queue) {
		d := q.queue[q.head]
		if q.ch.Domain.Blocked(d.Buffer, d.Len) {
			// Guest-table protection violation: the descriptor is
			// discarded (the IOuser misprogrammed its own table).
			q.pop()
			dev.TxDroppedProtect.Inc()
			continue
		}
		_, missing := q.ch.Domain.Translate(d.Buffer, d.Len)
		if len(missing) > 0 {
			if q.ch.Rx.policy == PolicyPinned {
				panic("nic: TX NPF on pinned channel " + q.ch.Name)
			}
			q.suspended = true
			dev.TxFaults.Inc()
			ev := TxNPF{
				Channel: q.ch,
				Missing: missing,
				Start:   dev.Eng.Now(),
				Resume: func() {
					// Figure 3a component (v): the NIC notices the
					// page-table update and resumes.
					dev.Eng.After(dev.Cfg.FirmwareResume, func() {
						q.suspended = false
						q.kick()
					})
				},
			}
			// Firmware detects the fault and raises the NPF interrupt
			// (components i–ii).
			ev.Fault = dev.mintFault()
			lat := dev.firmwareFaultLatency() + dev.Cfg.IntLatency
			dev.Tracer.FaultMinted(ev.Fault, "tx", ev.Start, -1, int64(d.Dst), len(missing))
			if dev.Tracer.Enabled() {
				now := dev.Eng.Now()
				ev.Span = dev.Tracer.BeginAt(0, "npf", "tx", now)
				dev.Tracer.ArgInt(ev.Span, "pages", int64(len(missing)))
				dev.Tracer.Span(ev.Span, "npf.stage", "firmware", now, now+lat)
			}
			dev.Eng.After(lat, func() {
				dev.sink.HandleTxNPF(ev)
			})
			return
		}
		q.pop()
		q.ch.dmaTouch(d.Buffer, d.Len, false)
		dev.Net.Send(&fabric.Packet{
			Src:     dev.Node,
			Dst:     d.Dst,
			Flow:    d.DstFlow,
			Size:    d.Len,
			Payload: d.Payload,
		})
		dev.TxSent.Inc()
		q.completions = append(q.completions, TxCompletion{Cookie: d.Cookie})
		q.complete()
	}
}

// complete arms the coalesced TX-completion interrupt, delivered after the
// interrupt latency, for the completions kick has queued.
//
//npf:noalloc
func (q *TxQueue) complete() {
	if q.compPending {
		return
	}
	q.compPending = true
	dev := q.ch.Dev
	dev.Eng.After(dev.Cfg.IntLatency, q.irq)
}

// interrupt delivers the queued TX completions. The handler may post more
// descriptors, which complete into the other buffer.
func (q *TxQueue) interrupt() {
	q.compPending = false
	comps := q.completions
	q.completions = q.spare
	if q.ch.txHandler != nil {
		q.ch.txHandler.TxComplete(q.ch, comps)
	}
	clear(comps)
	q.spare = comps[:0]
}
