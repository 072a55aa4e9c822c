// Package engine executes algorithms on networks under the round semantics
// of §2.2: in each round t every agent sends according to its model's
// sending function, the communication graph 𝔾(t) routes the messages, and
// every agent applies its transition function to the received multiset.
//
// Two executors implement the semantics. Generic agents run on Engine;
// linear mass-passing algorithms (model.VectorAgent) can also run on the
// vectorized kernel (ParallelVec), which executes rounds over flat float64
// buffers with zero steady-state allocations. Both are thin executors over
// one shared round core (core.go), one topology substrate
// (internal/topology) and one slab pool (pool.go): the agents are cut
// into k contiguous slabs, run inline on the calling goroutine when k = 1
// ("seq", and "vec" by default) and on persistent workers otherwise
// ("shard", "vec" with more workers). Property tests assert that every
// executor and slab count produces the same trace for deterministic
// agents.
package engine

import (
	"runtime"

	"anonnet/internal/model"
	"anonnet/internal/topology"
)

// Runner is the common interface of the engines.
type Runner interface {
	// Step executes one round.
	Step() error
	// Round returns the number of completed rounds.
	Round() int
	// Outputs returns the agents' current output values x_i(t).
	Outputs() []model.Value
	// N returns the number of agents.
	N() int
	// Corrupt scrambles the volatile state of every Corruptible agent, for
	// self-stabilization experiments; it reports how many agents were
	// corrupted.
	Corrupt(junk int64) int
	// Stats returns cumulative execution statistics.
	Stats() Stats
	// Close releases resources (the slab workers of a multi-slab runner).
	Close()
}

// Stats are cumulative execution statistics, for communication-cost
// reporting.
type Stats struct {
	// Rounds is the number of completed rounds.
	Rounds int
	// MessagesDelivered counts every delivered message (one per edge per
	// round between active agents, duplicates and re-delivered delayed
	// messages included).
	MessagesDelivered int64
	// Faults counts the injected faults actually applied.
	Faults FaultStats
}

// Engine is the generic runner: it executes any model.Agent over k
// contiguous agent slabs. With one slab (New) every stage is a plain loop
// over the agents on the calling goroutine — the reference executor the
// vector kernel is property-tested against. With more (NewSharded) each
// slab has a persistent worker: send and receive run slab-parallel, and
// delivery runs destination-major over the shared topology snapshot, each
// destination owned by exactly one slab, so slabs fill their own agents'
// inboxes from the sent buffers without locks. The seeded shuffle stays
// one serial pass in agent-index order, so the trace does not depend on
// the slab count.
//
// Inbox slices handed to Agent.Receive are owned by the engine and reused
// in later rounds; agents must copy anything they retain (the model
// contract only promises the slice for the duration of Receive).
type Engine struct {
	*core
}

var _ Runner = (*Engine)(nil)

// New validates cfg, instantiates the agents, and returns a one-slab
// generic engine positioned before round 1. It starts no goroutines.
func New(cfg Config) (*Engine, error) { return newEngine(cfg, 1) }

// NewSharded is New with the agents cut into the given number of slabs,
// one worker goroutine each (≤ 0 selects runtime.GOMAXPROCS(0); counts
// above the agent count are clamped to it). Slab counts need not divide
// the agent count. Callers must Close the engine to stop the workers.
func NewSharded(cfg Config, shards int) (*Engine, error) {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return newEngine(cfg, shards)
}

func newEngine(cfg Config, slabs int) (*Engine, error) {
	c, err := newCore(cfg, "generic")
	if err != nil {
		return nil, err
	}
	e := &Engine{core: c}
	c.pool = newSlabPool(c.N(), slabs, e.runSlab)
	return e, nil
}

// Step executes one round: restart, send, route (with fault fates),
// shuffle, receive.
func (e *Engine) Step() error { return e.step(e) }

func (e *Engine) restart(t int) error { return e.restartAll(t) }

func (e *Engine) runSlab(s *slab, req phaseReq) error {
	switch req.phase {
	case phaseSend:
		return e.sendRange(req.snap, s.lo, s.hi)
	case phaseDeliver:
		delivered, err := e.deliverRange(req.snap, req.t, s.lo, s.hi, &s.faults)
		s.messages += delivered
		return err
	default: // phaseReceive
		e.receiveRange(s.lo, s.hi)
		return nil
	}
}

func (e *Engine) order(t int, snap *topology.Snapshot) error {
	e.shuffleAll()
	return nil
}
