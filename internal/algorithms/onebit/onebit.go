// Package onebit implements the reference algorithm of the one-bit
// broadcast model (Blanc, Di Luna & Viglietta): agents whose sending
// function emits a single bit per round — σ : Q → {0, 1} — over binary
// inputs. The algorithm is alternating parity flooding: odd rounds flood
// the OR of the inputs seen so far, even rounds flood the AND, each by
// broadcasting the current accumulator bit and folding the received bits
// in. Once both floods have crossed the network, an agent knows whether
// any input was 1 (the OR) and whether any input was 0 (the negated AND) —
// which over inputs restricted to {0, 1} is the full input *set*, so every
// set-based function is computable. This realizes the positive half of the
// one-bit rows of Tables 1 and 2; the ceiling (nothing beyond set-based)
// is inherited from simple broadcast, since one bit is syntactically a
// restriction of an arbitrary message.
//
// The alternating flood has period 2, so on dynamic schedules whose graph
// sequence alternates with the same period (e.g. a split ring), one flood
// can resonate with the schedule and only ever cross half the
// configurations. The cmd/tables harness therefore verifies the dynamic
// one-bit cells on schedules that are connected every round; the static
// cells are immune.
package onebit

import (
	"fmt"

	"anonnet/internal/funcs"
	"anonnet/internal/model"
)

// Agent is one parity-flooding automaton. Beyond model.BitSender it
// implements the senders of the four paper models too, wrapping the bit as
// each expects, so the conformance harness can replay the same algorithm
// under richer models and compare traces.
type Agent struct {
	f funcs.Func
	// odd tracks the phase parity: true before an odd (OR-flood) round's
	// send. Receive flips it, keeping send and receive of a round in the
	// same phase.
	odd bool
	// or accumulates the OR flood: true once a 1-input is reachable.
	or bool
	// and accumulates the AND flood: false once a 0-input is reachable.
	and bool
}

var (
	_ model.BitSender       = (*Agent)(nil)
	_ model.Broadcaster     = (*Agent)(nil)
	_ model.OutdegreeSender = (*Agent)(nil)
	_ model.PortSender      = (*Agent)(nil)
	_ model.Corruptible     = (*Agent)(nil)
)

// NewFactory returns a factory of one-bit parity-flooding agents computing
// f, which must be set-based — the floods retain which bits occur, never
// how often. Inputs must be binary; the factory cannot see them, so the
// agent rejects non-binary inputs by treating any nonzero value as 1 (the
// job-spec codec validates binary inputs before an execution is built).
func NewFactory(f funcs.Func) (model.Factory, error) {
	if f.Class != funcs.SetBased {
		return nil, fmt.Errorf("onebit: function %q is %v, need set-based", f.Name, f.Class)
	}
	return func(in model.Input) model.Agent {
		b := in.Value != 0
		return &Agent{f: f, odd: true, or: b, and: b}
	}, nil
}

// SendBit emits the current flood's accumulator: the OR bit on odd rounds,
// the AND bit on even ones.
func (a *Agent) SendBit() bool {
	if a.odd {
		return a.or
	}
	return a.and
}

// Send wraps the bit for the simple-broadcast and symmetric models.
func (a *Agent) Send() model.Message { return model.Bit(a.SendBit()) }

// SendOutdegree ignores the outdegree: parity flooding is graph-invariant.
func (a *Agent) SendOutdegree(int) model.Message { return a.Send() }

// SendPorts sends the same bit on every port.
func (a *Agent) SendPorts(outdeg int) []model.Message {
	m := a.Send()
	out := make([]model.Message, outdeg)
	for i := range out {
		out[i] = m
	}
	return out
}

// Receive folds the received bits into the current flood's accumulator —
// OR on odd rounds, AND on even — then flips the phase. BitCounts reduces
// the multiset to its sufficient statistic, so delivery order (and any
// foreign traffic) is immaterial.
func (a *Agent) Receive(msgs []model.Message) {
	ones, total := model.BitCounts(msgs)
	if a.odd {
		a.or = a.or || ones > 0
	} else {
		a.and = a.and && ones == total
	}
	a.odd = !a.odd
}

// Output evaluates f on the reconstructed input set: 1 is present iff the
// OR flood saw it, 0 is present iff the AND flood lost it. Before either
// flood has crossed the network the set is a partial view, exactly like
// gossip's — the outputs stabilize within 2·D rounds.
func (a *Agent) Output() model.Value {
	vals := make([]float64, 0, 2)
	if !a.and {
		vals = append(vals, 0)
	}
	if a.or {
		vals = append(vals, 1)
	}
	if len(vals) == 0 {
		// or=false ∧ and=true claims "no input at all" — unreachable for
		// an uncorrupted agent (its own input seeds both accumulators),
		// but a corrupted one can land here; report the empty set as {0}
		// so f still gets a nonempty multiset.
		vals = append(vals, 0)
	}
	return a.f.EvalSet(vals)
}

// Corrupt scrambles the accumulators and the phase from the junk's low
// bits. Parity flooding never forgets, so like gossip it is not
// self-stabilizing — the corruption persists, which the self-stabilization
// experiments demonstrate.
func (a *Agent) Corrupt(junk int64) {
	a.or = junk&1 != 0
	a.and = junk&2 != 0
	a.odd = junk&4 != 0
}
