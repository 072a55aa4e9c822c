// Package gossip implements the simple gossip (flooding) algorithm: each
// agent repeatedly broadcasts the set of input values it has heard of and
// unions what it receives. Within D (dynamic-diameter) rounds every agent
// holds the full set of input values, so any set-based function is
// computable — the positive half of the simple-broadcast row of Tables 1
// and 2. The impossibility halves (nothing beyond set-based is computable
// by broadcast) are exercised by the core package's fibration witnesses.
package gossip

import (
	"fmt"
	"math"
	"sort"

	"anonnet/internal/funcs"
	"anonnet/internal/model"
)

// Agent is one gossip automaton. It implements the senders of all four
// communication models, since a broadcast algorithm runs unchanged in the
// richer models (it simply ignores the extra information).
//
// The seen-set is a sorted, duplicate-free slice that is never mutated in
// place: every growth allocates a fresh slice. A set is therefore safe to
// share — Send hands out the agent's own slice, and Receive adopts a
// neighbour's slice outright when it is a superset — so a round in which
// nothing changes allocates nothing, and the message and the output are
// boxed once per change rather than once per round.
type Agent struct {
	f    funcs.Func
	seen set           // immutable once published
	msg  model.Message // seen, boxed; nil until the next Send after a change
	out  model.Value   // f(seen), boxed; nil until the next Output after a change
}

// set is a gossip message and seen-set: sorted ascending, duplicate-free
// under ==, and never written after it is built. The named type marks
// provenance — a set came from a gossip agent and may be shared, whereas
// a plain []float64 from foreign traffic is copied and normalized first.
type set []float64

var (
	_ model.Broadcaster     = (*Agent)(nil)
	_ model.OutdegreeSender = (*Agent)(nil)
	_ model.PortSender      = (*Agent)(nil)
	_ model.Corruptible     = (*Agent)(nil)
)

// NewFactory returns a factory of gossip agents computing f, which must be
// set-based: gossip forgets multiplicities by construction, so a larger
// class would silently compute the wrong function.
func NewFactory(f funcs.Func) (model.Factory, error) {
	if f.Class != funcs.SetBased {
		return nil, fmt.Errorf("gossip: function %q is %v, need set-based", f.Name, f.Class)
	}
	return func(in model.Input) model.Agent {
		return &Agent{f: f, seen: set{in.Value}}
	}, nil
}

// Send broadcasts the sorted set of values seen so far. The returned
// slice is shared and must not be modified.
func (a *Agent) Send() model.Message {
	if a.msg == nil {
		a.msg = a.seen
	}
	return a.msg
}

// SendOutdegree ignores the outdegree: gossip is graph-invariant (§2.2).
func (a *Agent) SendOutdegree(int) model.Message { return a.Send() }

// SendPorts sends the same set on every port.
func (a *Agent) SendPorts(outdeg int) []model.Message {
	m := a.Send()
	out := make([]model.Message, outdeg)
	for i := range out {
		out[i] = m
	}
	return out
}

// Receive unions the received sets into the local one. Each message is
// merged with one linear pass: a message that adds nothing leaves the set
// as it is, a superset is adopted as it stands (sets are immutable, so
// sharing is safe), and only a message that both adds to and lacks part of
// the local set costs a fresh union. The agent's own current slice, echoed
// back over a self-loop or shared by a neighbour, is skipped outright.
func (a *Agent) Receive(msgs []model.Message) {
	for _, m := range msgs {
		var vals set
		switch v := m.(type) {
		case set:
			vals = v
		case []float64:
			vals, m = normalize(v), nil // foreign slice: never share it
		default:
			continue // foreign message; gossip is tolerant by nature
		}
		if same(vals, a.seen) {
			continue // our own set, echoed back
		}
		switch merged := union(a.seen, vals); {
		case same(merged, a.seen):
		case same(merged, vals):
			a.seen, a.msg, a.out = vals, m, nil
		default:
			a.seen, a.msg, a.out = merged, nil, nil
		}
	}
}

// Output evaluates f on the set of values seen, re-evaluating only after
// the set changed.
func (a *Agent) Output() model.Value {
	if a.out == nil {
		a.out = a.f.EvalSet(a.seen)
	}
	return a.out
}

// Corrupt injects a junk value into the seen-set. Gossip never forgets, so
// it is *not* self-stabilizing — the self-stabilization tests demonstrate
// exactly this failure, as the paper notes for flooding-style algorithms.
func (a *Agent) Corrupt(junk int64) {
	a.seen, a.msg, a.out = union(a.seen, set{float64(junk%1000) + 0.5}), nil, nil
}

// same reports whether a and b are the same slice (not merely equal).
func same(a, b set) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// union returns the union of the sets a and b. A value present in both
// (under ==) is represented by b's copy: the later insertion wins, as it
// does for a map keyed by float64, which matters only for the sign of a
// zero. The result is a itself when b adds nothing, b itself when b
// covers a, and otherwise one freshly allocated slice; neither argument
// is ever written.
func union(a, b set) set {
	n, fromA, fromB := 0, false, false // union size; each side contributes
	i, j := 0, 0
	for ; i < len(a) && j < len(b); n++ {
		switch x, y := a[i], b[j]; {
		case x < y:
			fromA = true
			i++
		case y < x:
			fromB = true
			j++
		default:
			fromB = fromB || math.Float64bits(x) != math.Float64bits(y)
			i++
			j++
		}
	}
	fromA = fromA || i < len(a)
	fromB = fromB || j < len(b)
	switch {
	case !fromB:
		return a
	case !fromA:
		return b
	}
	out := make(set, 0, n+len(a)-i+len(b)-j)
	i, j = 0, 0
	for i < len(a) && j < len(b) {
		switch x, y := a[i], b[j]; {
		case x < y:
			out = append(out, x)
			i++
		case y < x:
			out = append(out, y)
			j++
		default:
			out = append(out, y)
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// normalize turns an arbitrary foreign value slice into a fresh set,
// keeping the last copy of each value as union does.
func normalize(v []float64) set {
	s := append(set(nil), v...)
	sort.SliceStable(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	for _, x := range s {
		if k := len(out) - 1; k >= 0 && out[k] == x {
			out[k] = x
			continue
		}
		out = append(out, x)
	}
	return out
}
