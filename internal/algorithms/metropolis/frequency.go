package metropolis

import (
	"fmt"

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

	deg int
	x   map[float64]float64
	out model.Value

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
			x:       map[float64]float64{in.Value: 1},
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
	x := make(map[float64]float64, len(a.x))
	for k, v := range a.x {
		x[k] = v
	}
	return FreqMsg{X: x, D: deg}
}

// Receive applies the per-value Metropolis update. A value unknown to the
// agent joins with estimate 0, and a neighbour unaware of ω is treated as
// holding 0 — both ends of a link compute the same view of the exchange, so
// the per-instance sum is conserved and every estimate converges to ν(ω).
func (a *FreqAgent) Receive(msgs []model.Message) {
	incoming := make([]FreqMsg, 0, len(msgs))
	support := make(map[float64]bool, len(a.x))
	for w := range a.x {
		support[w] = true
	}
	for _, raw := range msgs {
		m, ok := raw.(FreqMsg)
		if !ok {
			continue
		}
		incoming = append(incoming, m)
		for w := range m.X {
			support[w] = true
		}
	}
	next := make(map[float64]float64, len(support))
	if a.variant == MaxDegree {
		// Factored form shared verbatim with the vectorized path (see
		// maxDegreeStep): sum the neighbours' estimates first, then apply
		// the 1/N-weighted correction once.
		for w := range support {
			xw := a.x[w] // 0 when joining
			var sum float64
			for _, m := range incoming {
				sum += m.X[w] // missing entries read as 0
			}
			next[w] = maxDegreeStep(xw, sum, len(incoming), a.boundN)
		}
	} else {
		for w := range support {
			xw := a.x[w] // 0 when joining
			sum := xw
			for _, m := range incoming {
				sum += a.weight(m.D) * (m.X[w] - xw) // missing entries read as 0
			}
			next[w] = sum
		}
	}
	a.x = next
	a.refreshOutput()
}

// InitVector reports width 2 per universe value — the estimate and an
// awareness flag — for the MaxDegree variant; Standard and Lazy decline,
// exactly as the plain Agent does. The flag reproduces the support-set
// semantics: a value enters an agent's estimate map when some neighbour
// runs its instance, even at estimate 0.
func (a *FreqAgent) InitVector(universe []float64) int {
	if a.variant != MaxDegree {
		return 0
	}
	a.universe = universe
	return 2 * len(universe)
}

// SendVector lays the estimates out densely; unaware values contribute
// exact-zero rows (estimates are non-negative, so adding them never flips
// a sign bit).
func (a *FreqAgent) SendVector(outdeg int, dst []float64) {
	for k, w := range a.universe {
		if x, aware := a.x[w]; aware {
			dst[2*k] = x
			dst[2*k+1] = 1
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
	next := make(map[float64]float64, len(a.x))
	for k, w := range a.universe {
		xw, joined := a.x[w]
		if sum[2*k+1] == 0 && !joined {
			continue // ω not in support: no instance here yet
		}
		next[w] = maxDegreeStep(xw, sum[2*k], count, a.boundN)
	}
	a.x = next
	a.refreshOutput()
}

// Estimates returns a copy of the per-value estimates, for tests.
func (a *FreqAgent) Estimates() map[float64]float64 {
	out := make(map[float64]float64, len(a.x))
	for w, v := range a.x {
		out[w] = v
	}
	return out
}

func (a *FreqAgent) refreshOutput() {
	ms, ok := reconstruct.FromHelp(a.x, a.help)
	if !ok {
		return
	}
	a.out = a.f.Eval(ms)
}

// weight reuses the pairwise weight rule of the plain agent.
func (a *FreqAgent) weight(neighbourDeg int) float64 {
	plain := Agent{variant: a.variant, boundN: a.boundN, deg: a.deg}
	return plain.weight(neighbourDeg)
}

// Output returns the current output value.
func (a *FreqAgent) Output() model.Value { return a.out }
