package engine

import (
	"fmt"
	"runtime"
	"sync"

	"anonnet/internal/model"
	"anonnet/internal/topology"
)

// ParallelVec is the zero-allocation kernel runner for linear mass-passing
// algorithms: agents implementing model.VectorAgent expose their round
// message as a fixed-width float64 tuple, and the engine executes rounds
// entirely over flat n·width SoA buffers — one for the sent rows, one for
// the per-destination sums — with a gather over the shared topology
// snapshot's destination-major layout. No message is ever boxed into an
// interface.
//
// The agent range is partitioned into contiguous slabs, one per worker,
// and every stage of the round — send, gather, accumulate, receive — runs
// slab-parallel over the shared buffers and the immutable snapshot. With
// one worker the phases run inline on the calling goroutine; with more,
// each slab has a persistent worker goroutine, and since workers never
// touch each other's destinations the only synchronization is the channel
// barrier between phases. Either way the steady-state round loop performs
// zero heap allocations (asserted by tests and the CI allocation gate).
//
// The trace contract is the hard part. The seeded Fisher–Yates shuffle
// consumes the shared RNG with rejection sampling, so the number of draws
// a destination consumes depends on its in-degree — per-worker RNG states
// cannot be precomputed. Instead the round splits the shuffle in two:
// workers gather each destination's contribution list (and its length) in
// parallel, then the engine goroutine replays the sequential engine's
// exact draw sequence — destinations in agent-index order, active only —
// recording each draw's swap target into a flat buffer, and finally the
// workers apply their slab's recorded swaps and sum the rows in parallel.
// The RNG is only ever touched by the engine goroutine, draw-for-draw as
// the sequential engine touches it, so checkpoint draw counting and the
// SHA-256 golden traces carry over unchanged. The serial pass is O(total
// messages) integer work against the O(total messages · width) float work
// it fans out, so it stays a small fraction of the round.
type ParallelVec struct {
	*core
	vecs     []model.VectorAgent
	width    int
	universe []float64

	// Flat SoA state, shared across workers: agent i's outgoing message
	// occupies rows[i·w : (i+1)·w]; destination j's sum accumulates in
	// sums[j·w : (j+1)·w]; counts[j] is destination j's multiset size.
	// Each index is written by exactly one worker per phase.
	rows   []float64
	sums   []float64
	counts []int32

	workers int
	shard   []pvShard

	// swaps holds the recorded Fisher–Yates swap targets of the current
	// round, destination-major in agent-index order; swapBase[k] is the
	// offset where worker k's slab begins. Written by the engine goroutine
	// between the gather and accumulate barriers, read by the workers.
	swaps    []int32
	swapBase []int32

	vpend *vecPending

	// reqs and done are the worker barrier; both are nil with one worker,
	// whose phases run inline.
	reqs []chan pvReq
	done chan struct{}
	wg   sync.WaitGroup
}

var _ Runner = (*ParallelVec)(nil)

// pvShard is one worker's slab-local state. refs accumulates the
// contribution lists of the slab's destinations back to back (refStart
// delimits them), late the delayed rows flushed for the whole round —
// gather and accumulate are separate phases, so both must survive the
// barrier between them.
type pvShard struct {
	refs     []int32
	refStart []int32 // hi-lo+1 entries, offsets into refs
	late     []float64
	faults   FaultStats
	messages int64
	err      error
}

type pvPhase int

const (
	pvSend pvPhase = iota + 1
	pvGather
	pvAccum
	pvReceive
	pvStop
)

type pvReq struct {
	phase pvPhase
	t     int
	snap  *topology.Snapshot
}

// NewParallelVec validates cfg, instantiates the agents through the
// model.VectorAgent contract, and returns a vectorized engine with the
// given worker count (≤ 0 selects runtime.GOMAXPROCS(0)), positioned
// before round 1. Worker counts need not divide the agent count; counts
// above it leave some workers idle. One worker starts no goroutines; with
// more, callers must Close the engine to stop them. It returns an error
// wrapping ErrNotVectorizable when the algorithm cannot run on the vector
// kernel.
func NewParallelVec(cfg Config, workers int) (*ParallelVec, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if desc, err := model.Lookup(cfg.Kind); err == nil && desc.VecSend == nil {
		return nil, fmt.Errorf("%w: the %s model's sending function has no fixed-width vector form", ErrNotVectorizable, desc.Name)
	}
	core, err := newCore(cfg, "vectorized")
	if err != nil {
		return nil, err
	}
	n := core.N()
	universe := universeOf(cfg.Inputs)
	vecs := make([]model.VectorAgent, n)
	width := 0
	for i, a := range core.agents {
		va, ok := a.(model.VectorAgent)
		if !ok {
			return nil, fmt.Errorf("%w: agent %d (%T) does not implement model.VectorAgent", ErrNotVectorizable, i, a)
		}
		w := va.InitVector(universe)
		if w <= 0 {
			return nil, fmt.Errorf("%w: agent %d (%T) declined vectorization", ErrNotVectorizable, i, a)
		}
		if i == 0 {
			width = w
		} else if w != width {
			return nil, fmt.Errorf("engine: agent %d reports vector width %d, agent 0 reported %d", i, w, width)
		}
		vecs[i] = va
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &ParallelVec{
		core:     core,
		vecs:     vecs,
		width:    width,
		universe: universe,
		rows:     make([]float64, n*width),
		sums:     make([]float64, n*width),
		counts:   make([]int32, n),
		workers:  workers,
		shard:    make([]pvShard, workers),
		swapBase: make([]int32, workers),
	}
	if cfg.Faults != nil {
		p.vpend = newVecPending(n, width)
	}
	if workers > 1 {
		p.reqs = make([]chan pvReq, workers)
		p.done = make(chan struct{}, workers)
	}
	for k := range p.shard {
		lo, hi := shardRange(n, workers, k)
		p.shard[k].refStart = make([]int32, hi-lo+1)
		if p.reqs != nil {
			p.reqs[k] = make(chan pvReq, 1)
			p.wg.Add(1)
			go p.worker(k, lo, hi)
		}
	}
	return p, nil
}

// Workers returns the worker count.
func (p *ParallelVec) Workers() int { return p.workers }

// Width returns the per-message vector width, for white-box tests.
func (p *ParallelVec) Width() int { return p.width }

// Step executes one round with the same semantics (and trace) as
// Engine.Step.
func (p *ParallelVec) Step() error { return p.step(p) }

// worker owns agents [lo, hi): it blocks on its request channel, runs the
// requested phase over its slab, and signals the barrier. Panics in agent
// code are recovered into the shard's error slot.
func (p *ParallelVec) worker(k, lo, hi int) {
	defer p.wg.Done()
	for req := range p.reqs[k] {
		if req.phase == pvStop {
			p.done <- struct{}{}
			return
		}
		p.runPhase(k, lo, hi, req)
		p.done <- struct{}{}
	}
}

func (p *ParallelVec) runPhase(k, lo, hi int, req pvReq) {
	defer func() {
		if r := recover(); r != nil && p.shard[k].err == nil {
			p.shard[k].err = fmt.Errorf("engine: panic in parallel vec worker %d (agents %d..%d): %v", k, lo, hi-1, r)
		}
	}()
	w := p.width
	switch req.phase {
	case pvSend:
		for i := lo; i < hi; i++ {
			if p.active[i] {
				p.desc.VecSend(p.vecs[i], req.snap.OutDegree(i), p.rows[i*w:(i+1)*w:(i+1)*w])
			}
		}
	case pvGather:
		sh := &p.shard[k]
		sh.refs = sh.refs[:0]
		sh.late = sh.late[:0]
		view := req.snap.DstRange(lo, hi)
		for j := lo; j < hi; j++ {
			sh.refStart[j-lo] = int32(len(sh.refs))
			sh.refs = gatherDest(p.core, view, req.t, j, w, p.rows, p.vpend, sh.refs, &sh.late, &sh.faults)
			count := int32(len(sh.refs)) - sh.refStart[j-lo]
			p.counts[j] = count
			if p.active[j] {
				sh.messages += int64(count)
			}
			sum := p.sums[j*w : (j+1)*w]
			for c := range sum {
				sum[c] = 0
			}
		}
		sh.refStart[hi-lo] = int32(len(sh.refs))
	case pvAccum:
		sh := &p.shard[k]
		pos := p.swapBase[k]
		for j := lo; j < hi; j++ {
			if !p.active[j] {
				continue
			}
			refs := sh.refs[sh.refStart[j-lo]:sh.refStart[j-lo+1]]
			if len(refs) > 1 {
				applySwaps(refs, p.swaps[pos:])
				pos += int32(len(refs) - 1)
			}
			accumulateRows(p.sums[j*w:(j+1)*w], refs, w, p.rows, sh.late)
		}
	case pvReceive:
		for j := lo; j < hi; j++ {
			if p.active[j] {
				p.vecs[j].ReceiveVector(p.sums[j*w:(j+1)*w], int(p.counts[j]))
			}
		}
	}
}

// barrier runs req over every slab — inline with one worker, otherwise by
// dispatching it to every worker and waiting for all of them — and
// returns (clearing) the first shard error.
func (p *ParallelVec) barrier(req pvReq) error {
	if p.reqs == nil {
		p.runPhase(0, 0, p.N(), req)
	}
	for k := range p.reqs {
		p.reqs[k] <- req
	}
	for range p.reqs {
		<-p.done
	}
	var err error
	for k := range p.shard {
		if err == nil && p.shard[k].err != nil {
			err = p.shard[k].err
		}
		p.shard[k].err = nil
	}
	return err
}

// restart applies the crash-restart channel on the engine goroutine (the
// workers are quiescent between rounds). Rebuilt agents re-enter through
// model.VectorAgent so their width commitment stays intact.
func (p *ParallelVec) restart(t int) error {
	inj := p.cfg.Faults
	if inj == nil {
		return nil
	}
	for i := range p.agents {
		if !inj.Restart(t, i) {
			continue
		}
		a := p.cfg.Factory(p.cfg.Inputs[i])
		if a == nil {
			return fmt.Errorf("engine: factory returned nil agent restarting agent %d at round %d", i, t)
		}
		va, ok := a.(model.VectorAgent)
		if !ok {
			return fmt.Errorf("engine: restarted agent %d (%T) does not implement model.VectorAgent", i, a)
		}
		if w := va.InitVector(p.universe); w != p.width {
			return fmt.Errorf("engine: restarted agent %d reports vector width %d, want %d", i, w, p.width)
		}
		p.agents[i], p.vecs[i] = a, va
	}
	return nil
}

// send fans the sending functions out over the worker slabs.
func (p *ParallelVec) send(t int, snap *topology.Snapshot) error {
	return p.barrier(pvReq{phase: pvSend, t: t, snap: snap})
}

// exchange is gather (parallel) → draw recording (serial) → swap replay +
// accumulate (parallel). The serial middle pass is the shuffle split
// described on the type: it performs, on the shared RNG, exactly the
// bounded draws the sequential engine's per-destination rand.Shuffle
// performs — destinations in agent-index order, active only, sizes from
// the gathered counts — and records each draw's swap target so the
// workers can apply the permutations without touching the RNG.
func (p *ParallelVec) exchange(t int, snap *topology.Snapshot) error {
	if err := p.barrier(pvReq{phase: pvGather, t: t, snap: snap}); err != nil {
		return err
	}
	p.swaps = p.swaps[:0]
	for k := 0; k < p.workers; k++ {
		lo, hi := shardRange(p.N(), p.workers, k)
		p.swapBase[k] = int32(len(p.swaps))
		for j := lo; j < hi; j++ {
			if !p.active[j] {
				continue
			}
			for i := int(p.counts[j]) - 1; i > 0; i-- {
				p.swaps = append(p.swaps, randInt31n(p.rng, int32(i+1)))
			}
		}
		p.messages += p.shard[k].messages
		p.faults.add(p.shard[k].faults)
		p.shard[k].messages = 0
		p.shard[k].faults = FaultStats{}
	}
	return p.barrier(pvReq{phase: pvAccum, t: t, snap: snap})
}

// receive applies the vector transition functions over the worker slabs.
func (p *ParallelVec) receive(t int, snap *topology.Snapshot) error {
	return p.barrier(pvReq{phase: pvReceive, t: t, snap: snap})
}

// applySwaps replays a recorded Fisher–Yates permutation: swaps[s] is the
// target drawn for position i = len(refs)-1-s, exactly as shuffleRefs
// would have drawn it.
func applySwaps(refs, swaps []int32) {
	s := 0
	for i := len(refs) - 1; i > 0; i-- {
		j := swaps[s]
		s++
		refs[i], refs[j] = refs[j], refs[i]
	}
}

// Close stops the worker goroutines, if any. It is idempotent.
func (p *ParallelVec) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for k := range p.reqs {
		p.reqs[k] <- pvReq{phase: pvStop}
	}
	for range p.reqs {
		<-p.done
	}
	for k := range p.reqs {
		close(p.reqs[k])
	}
	p.wg.Wait()
}
