package engine

import (
	"fmt"
	"runtime"

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
// The agent range runs on the core's slab pool, and every stage of the
// round — send, gather, accumulate, receive — runs slab-parallel over the
// shared buffers and the immutable snapshot: inline on the calling
// goroutine with one worker, on persistent slab workers with more. Either
// way the steady-state round loop performs zero heap allocations
// (asserted by tests and the CI allocation gate).
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

	// Flat SoA state, shared across slabs: agent i's outgoing message
	// occupies rows[i·w : (i+1)·w]; destination j's sum accumulates in
	// sums[j·w : (j+1)·w]; counts[j] is destination j's multiset size.
	// Each index is written by exactly one slab per phase.
	rows   []float64
	sums   []float64
	counts []int32

	gathers []vecGather

	// swaps holds the recorded Fisher–Yates swap targets of the current
	// round, destination-major in agent-index order; swapBase[k] is the
	// offset where slab k begins. Written by the engine goroutine between
	// the gather and accumulate barriers, read by the slabs.
	swaps    []int32
	swapBase []int32

	vpend *vecPending
}

var _ Runner = (*ParallelVec)(nil)

// vecGather is one slab's gather state. refs accumulates the contribution
// lists of the slab's destinations back to back (refStart delimits them),
// late the delayed rows flushed for the whole round — gather and
// accumulate are separate phases, so both must survive the barrier
// between them.
type vecGather struct {
	refs     []int32
	refStart []int32 // hi-lo+1 entries, offsets into refs
	late     []float64
}

// NewParallelVec validates cfg, instantiates the agents through the
// model.VectorAgent contract, and returns a vectorized engine with the
// given worker count (≤ 0 selects runtime.GOMAXPROCS(0)), positioned
// before round 1. Worker counts need not divide the agent count; counts
// above it are clamped to it. One worker starts no goroutines; with more,
// callers must Close the engine to stop them. It returns an error
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
	}
	if cfg.Faults != nil {
		p.vpend = newVecPending(n, width)
	}
	core.pool = newSlabPool(n, workers, p.runSlab)
	p.gathers = make([]vecGather, len(core.pool.slabs))
	p.swapBase = make([]int32, len(core.pool.slabs))
	for k, s := range core.pool.slabs {
		p.gathers[k].refStart = make([]int32, s.hi-s.lo+1)
	}
	return p, nil
}

// Width returns the per-message vector width, for white-box tests.
func (p *ParallelVec) Width() int { return p.width }

// Step executes one round with the same semantics (and trace) as
// Engine.Step.
func (p *ParallelVec) Step() error { return p.step(p) }

func (p *ParallelVec) runSlab(s *slab, req phaseReq) error {
	w, lo, hi := p.width, s.lo, s.hi
	switch req.phase {
	case phaseSend:
		for i := lo; i < hi; i++ {
			if p.active[i] {
				p.desc.VecSend(p.vecs[i], req.snap.OutDegree(i), p.rows[i*w:(i+1)*w:(i+1)*w])
			}
		}
	case phaseDeliver:
		g := &p.gathers[s.k]
		g.refs = g.refs[:0]
		g.late = g.late[:0]
		view := req.snap.DstRange(lo, hi)
		for j := lo; j < hi; j++ {
			g.refStart[j-lo] = int32(len(g.refs))
			g.refs = gatherDest(p.core, view, req.t, j, w, p.rows, p.vpend, g.refs, &g.late, &s.faults)
			count := int32(len(g.refs)) - g.refStart[j-lo]
			p.counts[j] = count
			if p.active[j] {
				s.messages += int64(count)
			}
			sum := p.sums[j*w : (j+1)*w]
			for c := range sum {
				sum[c] = 0
			}
		}
		g.refStart[hi-lo] = int32(len(g.refs))
	case phaseAccum:
		g := &p.gathers[s.k]
		pos := p.swapBase[s.k]
		for j := lo; j < hi; j++ {
			if !p.active[j] {
				continue
			}
			refs := g.refs[g.refStart[j-lo]:g.refStart[j-lo+1]]
			if len(refs) > 1 {
				applySwaps(refs, p.swaps[pos:])
				pos += int32(len(refs) - 1)
			}
			accumulateRows(p.sums[j*w:(j+1)*w], refs, w, p.rows, g.late)
		}
	case phaseReceive:
		for j := lo; j < hi; j++ {
			if p.active[j] {
				p.vecs[j].ReceiveVector(p.sums[j*w:(j+1)*w], int(p.counts[j]))
			}
		}
	}
	return nil
}

// restart applies the crash-restart channel on the engine goroutine (the
// slab workers are quiescent between rounds). Rebuilt agents re-enter
// through model.VectorAgent so their width commitment stays intact.
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

// order is the serial middle of the exchange, between the gather and
// the accumulate barriers: the shuffle split described on the type. It
// performs, on the shared RNG, exactly the bounded draws the generic
// engine's per-destination rand.Shuffle performs — destinations in
// agent-index order, active only, sizes from the gathered counts — and
// records each draw's swap target so the slabs can apply the
// permutations without touching the RNG.
func (p *ParallelVec) order(t int, snap *topology.Snapshot) error {
	p.swaps = p.swaps[:0]
	for k, s := range p.pool.slabs {
		p.swapBase[k] = int32(len(p.swaps))
		for j := s.lo; j < s.hi; j++ {
			if !p.active[j] {
				continue
			}
			for i := int(p.counts[j]) - 1; i > 0; i-- {
				p.swaps = append(p.swaps, randInt31n(p.rng, int32(i+1)))
			}
		}
	}
	return p.pool.barrier(phaseReq{phase: phaseAccum, t: t, snap: snap})
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
