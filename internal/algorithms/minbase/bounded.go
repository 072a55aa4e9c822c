package minbase

import (
	"fmt"

	"anonnet/internal/model"
)

// The paper looks for *finite-state* solutions where possible (§1), and
// §3.2 notes Boldi–Vigna's finite-state variant of the minimum-base
// algorithm. Our unbounded Agent refines one view level per round forever.
// When a bound N ≥ n is known (the Corollary 4.2 setting), refinement can
// safely stop: incomplete (still-flooding) levels span at most the
// eccentricity < N of the agent, so a conservative stretch longer than
// 2N + 2 levels must contain N + 1 fully-known stable levels — and a stable
// level with complete knowledge is the true partition, stable forever.
// Freezing there bounds the agent's state and bandwidth for the rest of the
// execution; a reset wave (corruption, asynchronous start) lifts the
// freeze, preserving self-stabilization.

// BoundedAgent wraps Agent with the freeze rule, yielding a finite-state
// execution when a bound N on the network size is known.
type BoundedAgent struct {
	*Agent
	boundN int
}

var (
	_ model.Broadcaster     = (*BoundedAgent)(nil)
	_ model.OutdegreeSender = (*BoundedAgent)(nil)
	_ model.PortSender      = (*BoundedAgent)(nil)
	_ model.Corruptible     = (*BoundedAgent)(nil)
)

// NewBoundedFactory returns a factory of finite-state minimum-base
// automata for networks of at most boundN agents.
func NewBoundedFactory(kind model.Kind, boundN int) (model.Factory, error) {
	if boundN < 1 {
		return nil, fmt.Errorf("minbase: bound %d, want ≥ 1", boundN)
	}
	f, err := NewFactory(kind)
	if err != nil {
		return nil, err
	}
	return func(in model.Input) model.Agent {
		return &BoundedAgent{Agent: f(in).(*Agent), boundN: boundN}
	}, nil
}

// Frozen reports whether the agent has stopped refining.
func (b *BoundedAgent) Frozen() bool {
	return b.stableRunLength() >= 2*b.boundN+2
}

// stableRunLength returns the length of the longest conservative stretch of
// the agent's table (0 if none).
func (b *BoundedAgent) stableRunLength() int {
	_, n := b.table.longestConservativeRun()
	return n
}

// Receive applies the underlying transition with refinement gated by the
// freeze rule: a frozen agent keeps gossiping and merging its table — so
// late starters still learn it, and genuinely new knowledge (which changes
// the table, hence possibly Frozen()) unfreezes it — and still adopts
// epoch reset waves and outdegree changes, preserving self-stabilization;
// it just computes no new view level, bounding its state.
func (b *BoundedAgent) Receive(msgs []model.Message) {
	b.suppressRefine = b.Frozen()
	b.Agent.Receive(msgs)
	b.suppressRefine = false
}
