package model

import "fmt"

// This file registers the one-bit broadcast model of Blanc, Di Luna &
// Viglietta ("Computing in Anonymous Dynamic Networks Is Linear", and the
// one-bit communication line of work): each agent broadcasts a single bit
// per round — σ : Q → {0, 1} — and receives the multiset of its
// in-neighbours' bits. It is the first registry-hosted model beyond the
// paper's four (ROADMAP item 3), and the proof that adding a model is one
// descriptor plus one algorithm, not an edit to every engine.

// OneBitBroadcast is the one-bit broadcast model: a blind cast of one bit
// per round. Strictly weaker syntactically than simple broadcast
// (σ : Q → {0,1} ⊆ σ : Q → M), so every impossibility for simple
// broadcast applies a fortiori; the reference algorithms restrict inputs
// to {0, 1}, over which the input set is recoverable and every set-based
// function is computable.
const OneBitBroadcast Kind = 5

// Bit is the message type of the one-bit broadcast model. Engines deliver
// Bit values; BitCounts folds a received multiset into its sufficient
// statistic (ones, total).
type Bit bool

// BitSender is an agent for the one-bit broadcast model: the sending
// function σ : Q → {0, 1} emits exactly one bit, seeing nothing but the
// local state.
type BitSender interface {
	Agent
	// SendBit returns the single bit broadcast this round.
	SendBit() bool
}

// BitCounts folds a received multiset into the pair (ones, total) over
// its Bit messages — the complete information a one-bit receive carries,
// since a multiset of bits is determined by its size and its number of
// ones. Non-Bit messages are ignored (foreign traffic, as in gossip).
func BitCounts(msgs []Message) (ones, total int) {
	for _, m := range msgs {
		b, ok := m.(Bit)
		if !ok {
			continue
		}
		total++
		if b {
			ones++
		}
	}
	return ones, total
}

func init() {
	Register(Descriptor{
		Kind:    OneBitBroadcast,
		Name:    "one-bit broadcast",
		Canon:   "onebit",
		Aliases: []string{"one-bit", "1bit", "bit", "one-bit broadcast"},
		Iface:   "model.BitSender",
		Plan: func(a Agent, _ int, buf []Message) ([]Message, error) {
			b, ok := a.(BitSender)
			if !ok {
				return nil, fmt.Errorf("model: %T is not a model.BitSender", a)
			}
			return append(buf[:0], Bit(b.SendBit())), nil
		},
		Conforms: func(a Agent) bool { _, ok := a.(BitSender); return ok },
		// A bit is a blind cast: executions lift along any fibration, as
		// for simple broadcast.
		Lifting: LiftAny,
		// A bit row is a width-1 (or wider, algorithm's choice) vector, so
		// the standard hook applies; the reference algorithm does not
		// implement VectorAgent yet, in which case the kernels fall back
		// to the sequential engine with identical traces.
		VecSend: vecSendDefault,
		// The model itself runs on any network; its reference algorithms
		// compute set-based functions of binary inputs, which the spec
		// codec validates (and defaults to alternating 0,1).
		BinaryInputs: true,
		// Introduced by job-spec schema version 6, alongside the "model"
		// field.
		MinSpecSchema: 6,
	})
}
