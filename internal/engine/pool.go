package engine

import (
	"fmt"
	"sync"

	"anonnet/internal/topology"
)

// This file is the runners' one parallelism mechanism. The agent range is
// cut into k contiguous slabs; the core fans every parallel phase of a
// round out over them and joins them on a barrier. With one slab the
// phase runs inline on the calling goroutine — the sequential loop, no
// goroutine hop. With more, each slab has a persistent worker goroutine
// fed through its own request channel, and since a slab only writes its
// own agents' state (and reads the immutable snapshot and the sent
// buffers), the channel barrier between phases is the only
// synchronization. Requests are plain values, so dispatch allocates
// nothing.

// phase names one slab-parallel stage of a round.
type phase int

const (
	// phaseSend drives the slab's sending functions.
	phaseSend phase = iota + 1
	// phaseDeliver fills the slab's destinations' multisets (the vector
	// kernel's gather of contribution lists).
	phaseDeliver
	// phaseAccum applies the recorded shuffle and sums the rows (vector
	// kernel only).
	phaseAccum
	// phaseReceive applies the slab's transition functions.
	phaseReceive
)

// phaseReq is one phase dispatch: the stage, the round, and the round's
// validated snapshot.
type phaseReq struct {
	phase phase
	t     int
	snap  *topology.Snapshot
}

// slab is one worker's agent range [lo, hi) and what it reports back
// through the barrier: the first error of the current phase, and the
// messages it delivered and faults it applied this round, summed into the
// core's totals after the delivery barrier.
type slab struct {
	k, lo, hi int
	err       error
	messages  int64
	faults    FaultStats
}

// slabPool runs an executor's per-slab phase function over k slabs.
type slabPool struct {
	run   func(s *slab, req phaseReq) error
	slabs []slab
	// reqs (one channel per worker) and done are the barrier; both are nil
	// with one slab, whose phases run inline.
	reqs []chan phaseReq
	done chan struct{}
	wg   sync.WaitGroup
}

// newSlabPool cuts n agents into min(k, n) slabs (at least one) of
// ⌈n/k⌉-or-⌊n/k⌋ agents and, with more than one, starts a worker per
// slab. More slabs than agents would only add idle workers: traces do not
// depend on the slab count, so the clamp is unobservable.
func newSlabPool(n, k int, run func(s *slab, req phaseReq) error) *slabPool {
	k = max(1, min(k, n))
	p := &slabPool{run: run, slabs: make([]slab, k)}
	for i := range p.slabs {
		p.slabs[i] = slab{k: i, lo: i * n / k, hi: (i + 1) * n / k}
	}
	if k == 1 {
		return p
	}
	p.reqs = make([]chan phaseReq, k)
	p.done = make(chan struct{}, k)
	for i := range p.reqs {
		p.reqs[i] = make(chan phaseReq, 1)
		p.wg.Add(1)
		go p.worker(&p.slabs[i], p.reqs[i])
	}
	return p
}

// worker serves one slab until its request channel is closed.
func (p *slabPool) worker(s *slab, reqs <-chan phaseReq) {
	defer p.wg.Done()
	for req := range reqs {
		p.runSlab(s, req)
		p.done <- struct{}{}
	}
}

// runSlab runs one phase over one slab, recovering a panic in agent code
// into the slab's error.
func (p *slabPool) runSlab(s *slab, req phaseReq) {
	defer func() {
		if r := recover(); r != nil && s.err == nil {
			s.err = fmt.Errorf("engine: panic in slab %d (agents %d..%d): %v", s.k, s.lo, s.hi-1, r)
		}
	}()
	if err := p.run(s, req); err != nil && s.err == nil {
		s.err = err
	}
}

// barrier runs req over every slab — inline with one, otherwise on the
// workers — and returns (clearing) the first error in slab order.
func (p *slabPool) barrier(req phaseReq) error {
	if p.reqs == nil {
		p.runSlab(&p.slabs[0], req)
	} else {
		for _, c := range p.reqs {
			c <- req
		}
		for range p.reqs {
			<-p.done
		}
	}
	var err error
	for i := range p.slabs {
		if err == nil {
			err = p.slabs[i].err
		}
		p.slabs[i].err = nil
	}
	return err
}

// collect moves the slabs' delivery and fault counters into c's totals.
func (p *slabPool) collect(c *core) {
	for i := range p.slabs {
		s := &p.slabs[i]
		c.messages += s.messages
		c.faults.add(s.faults)
		s.messages, s.faults = 0, FaultStats{}
	}
}

// close stops the workers, if any; the core calls it once.
func (p *slabPool) close() {
	for _, c := range p.reqs {
		close(c)
	}
	p.wg.Wait()
}
