package metropolis

import (
	"fmt"
	"slices"

	"anonnet/internal/funcs"
	"anonnet/internal/model"
	"anonnet/internal/multiset"
	"anonnet/internal/reconstruct"
)

// FreqMsg carries the sender's per-value estimates and degree.
type FreqMsg struct {
	X map[float64]float64
	D int
}

// FreqAgent runs one average-consensus instance per value present in the
// network: the estimate vector x_i[ω] starts as the indicator of the own
// value and converges to the frequency ν(ω), because Metropolis updates are
// doubly stochastic and a joining agent contributes estimate 0 — the
// symmetric-communications route to frequency-based functions in dynamic
// networks (Table 2, after [11, 24]). The row's help selects the output
// reconstruction (reconstruct.FromHelp).
type FreqAgent struct {
	variant Variant
	boundN  int // the MaxDegree weight bound
	f       funcs.Func
	help    model.Help

	// vals lists the values whose instance this agent runs, in ascending
	// order, and x the estimates aligned with it. Both entry points update
	// this one representation in place; values only ever join.
	deg  int
	vals []float64
	x    []float64
	out  model.Value
	memo reconstruct.Memo // the last reconstruction: f runs only on a change

	// universe is the engine-provided dense layout for vectorized runs:
	// sorted distinct input values, read-only (see model.VectorAgent).
	universe []float64
}

var (
	_ model.OutdegreeSender = (*FreqAgent)(nil)
	_ model.Broadcaster     = (*FreqAgent)(nil)
	_ model.VectorAgent     = (*FreqAgent)(nil)
)

// NewFreqFactory checks f and the variant against Table 2's symmetric
// column for the given help and returns the factory. MaxDegree sizes its
// weights 1/N with the help's bound, or with the size when only the size
// is known; Standard and Lazy need outdegree awareness instead.
func NewFreqFactory(f funcs.Func, variant Variant, help model.Help) (model.Factory, error) {
	boundN := help.BoundN
	if boundN == 0 {
		boundN = help.KnownN
	}
	if err := checkVariant(variant, boundN); err != nil {
		return nil, err
	}
	if err := reconstruct.Check(f, help); err != nil {
		return nil, fmt.Errorf("metropolis: %w", err)
	}
	return func(in model.Input) model.Agent {
		return &FreqAgent{
			variant: variant,
			boundN:  boundN,
			f:       f,
			help:    help,
			vals:    []float64{in.Value},
			x:       []float64{1},
			out:     f.Eval(multiset.New(in.Value)),
		}
	}, nil
}

// SendOutdegree records the degree and broadcasts the estimates (degree-
// aware variants).
func (a *FreqAgent) SendOutdegree(outdeg int) model.Message {
	a.deg = outdeg
	return a.buildMsg(outdeg)
}

// Send broadcasts the estimates alone (MaxDegree under plain symmetric
// communications).
func (a *FreqAgent) Send() model.Message { return a.buildMsg(0) }

func (a *FreqAgent) buildMsg(deg int) model.Message {
	return FreqMsg{X: a.Estimates(), D: deg}
}

// join inserts value w, not yet run here, at its sorted position with
// estimate x.
func (a *FreqAgent) join(w, x float64) {
	i, _ := slices.BinarySearch(a.vals, w)
	a.vals = slices.Insert(a.vals, i, w)
	a.x = slices.Insert(a.x, i, x)
}

// Receive applies the per-value Metropolis update. A value unknown to the
// agent joins with estimate 0, and a neighbour unaware of ω is treated as
// holding 0 — both ends of a link compute the same view of the exchange, so
// the per-instance sum is conserved and every estimate converges to ν(ω).
// Each value's update reads only its own estimate, so joining first and
// updating every value in place is the same as updating over the support.
func (a *FreqAgent) Receive(msgs []model.Message) {
	incoming := make([]FreqMsg, 0, len(msgs))
	for _, raw := range msgs {
		if m, ok := raw.(FreqMsg); ok {
			incoming = append(incoming, m)
		}
	}
	for _, m := range incoming {
		for w := range m.X {
			if _, known := slices.BinarySearch(a.vals, w); !known {
				a.join(w, 0)
			}
		}
	}
	for i, w := range a.vals {
		xw := a.x[i]
		if a.variant == MaxDegree {
			// Factored form shared verbatim with the vectorized path (see
			// maxDegreeStep): sum the neighbours' estimates first, then
			// apply the 1/N-weighted correction once.
			var sum float64
			for _, m := range incoming {
				sum += m.X[w] // missing entries read as 0
			}
			a.x[i] = maxDegreeStep(xw, sum, len(incoming), a.boundN)
			continue
		}
		sum := xw
		for _, m := range incoming {
			sum += a.weight(m.D) * (m.X[w] - xw) // missing entries read as 0
		}
		a.x[i] = sum
	}
	a.refreshOutput()
}

// InitVector reports width 2 per universe value — the estimate and an
// awareness flag — for the MaxDegree variant; Standard and Lazy decline,
// exactly as the plain Agent does. The flag reproduces the support-set
// semantics: a value enters an agent's estimates when some neighbour runs
// its instance, even at estimate 0.
func (a *FreqAgent) InitVector(universe []float64) int {
	if a.variant != MaxDegree {
		return 0
	}
	a.universe = universe
	// A connected network eventually runs every instance everywhere, so
	// the per-value slices get their full capacity once, up front.
	grow := len(universe) - len(a.vals)
	a.vals = slices.Grow(a.vals, grow)
	a.x = slices.Grow(a.x, grow)
	return 2 * len(universe)
}

// SendVector lays the estimates out densely; unaware values contribute
// exact-zero rows (estimates are non-negative, so adding them never flips
// a sign bit). The agent's values are a sorted subset of the universe, so
// one merge walk places them.
func (a *FreqAgent) SendVector(outdeg int, dst []float64) {
	j := 0
	for k, w := range a.universe {
		if j < len(a.vals) && a.vals[j] == w {
			dst[2*k] = a.x[j]
			dst[2*k+1] = 1
			j++
		} else {
			dst[2*k] = 0
			dst[2*k+1] = 0
		}
	}
}

// ReceiveVector applies the factored per-value MaxDegree update on the
// engine-summed rows — the same expression, on bit-identical operands, as
// the generic Receive.
func (a *FreqAgent) ReceiveVector(sum []float64, count int) {
	j := 0
	for k, w := range a.universe {
		if j < len(a.vals) && a.vals[j] == w {
			a.x[j] = maxDegreeStep(a.x[j], sum[2*k], count, a.boundN)
			j++
			continue
		}
		if sum[2*k+1] == 0 {
			continue // ω not in support: no instance here yet
		}
		a.join(w, maxDegreeStep(0, sum[2*k], count, a.boundN))
		j++
	}
	a.refreshOutput()
}

// Estimates returns the per-value estimates as a fresh map, the form of
// messages and checkpoints.
func (a *FreqAgent) Estimates() map[float64]float64 {
	out := make(map[float64]float64, len(a.vals))
	for i, w := range a.vals {
		out[w] = a.x[i]
	}
	return out
}

// refreshOutput re-evaluates f when the reconstructed multiset changed; a
// failed reconstruction keeps the previous output.
func (a *FreqAgent) refreshOutput() {
	if a.memo.Update(a.vals, a.x, a.help) {
		a.out = a.f.Eval(a.memo.Args())
	}
}

// weight reuses the pairwise weight rule of the plain agent.
func (a *FreqAgent) weight(neighbourDeg int) float64 {
	plain := Agent{variant: a.variant, boundN: a.boundN, deg: a.deg}
	return plain.weight(neighbourDeg)
}

// Output returns the current output value.
func (a *FreqAgent) Output() model.Value { return a.out }
