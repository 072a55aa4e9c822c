// Package metropolis implements the Metropolis and Lazy Metropolis average-
// consensus algorithms of Section 5: doubly stochastic gossip on symmetric
// dynamic networks. In the paper's taxonomy, Metropolis needs symmetric
// communications *and* outdegree awareness (each message carries the
// sender's current degree); the MaxDegree variant trades the degree
// exchange for a known bound N on the network size, covering the symmetric
// column of Table 2 when a bound is known. Both tolerate asynchronous
// starts and use no persistent memory.
package metropolis

import (
	"fmt"

	"anonnet/internal/model"
)

// Msg carries the sender's current estimate and degree.
type Msg struct {
	X float64
	D int
}

// Variant selects the weight rule.
type Variant int

// The implemented weight rules.
const (
	// Standard uses w_ij = 1/max(d_i, d_j) — the Metropolis weights, with
	// quadratic convergence on per-round-connected symmetric networks [10].
	Standard Variant = iota + 1
	// Lazy uses w_ij = 1/(2·max(d_i, d_j)) — the Lazy Metropolis rule
	// [30, 31], extending the quadratic bound to finite dynamic diameter.
	Lazy
	// MaxDegree uses w_ij = 1/N for a known bound N ≥ n, requiring no
	// degree exchange: the symmetric-communications variant ([11, 24],
	// O(n⁴) time).
	MaxDegree
)

// Agent is one Metropolis automaton: state is the single running estimate
// x_i, updated by x_i ← x_i + Σ_j w_ij (x_j − x_i) over the round's
// neighbours. The weights are symmetric (w_ij = w_ji) and sub-stochastic,
// so the update matrix is doubly stochastic and the sum Σx_i is invariant:
// all estimates converge to the initial average on symmetric networks of
// finite dynamic diameter.
type Agent struct {
	variant Variant
	boundN  int
	x       float64
	deg     int
}

var (
	_ model.OutdegreeSender = (*Agent)(nil)
	_ model.Broadcaster     = (*Agent)(nil)
	_ model.VectorAgent     = (*Agent)(nil)
)

// NewFactory returns a Metropolis agent factory. boundN is required (≥ 1)
// for the MaxDegree variant and ignored otherwise.
func NewFactory(variant Variant, boundN int) (model.Factory, error) {
	if err := checkVariant(variant, boundN); err != nil {
		return nil, err
	}
	return func(in model.Input) model.Agent {
		return &Agent{variant: variant, boundN: boundN, x: in.Value}
	}, nil
}

// checkVariant rejects unknown variants and MaxDegree without a bound.
func checkVariant(variant Variant, boundN int) error {
	switch {
	case variant < Standard || variant > MaxDegree:
		return fmt.Errorf("metropolis: invalid variant %d", int(variant))
	case variant == MaxDegree && boundN < 1:
		return fmt.Errorf("metropolis: MaxDegree needs a bound N ≥ 1, got %d", boundN)
	}
	return nil
}

// SendOutdegree records the degree and broadcasts (x, d); the Standard and
// Lazy variants run under outdegree awareness.
func (a *Agent) SendOutdegree(outdeg int) model.Message {
	a.deg = outdeg
	return Msg{X: a.x, D: outdeg}
}

// Send broadcasts the estimate alone, for the MaxDegree variant under plain
// symmetric communications (the degree field is unused there).
func (a *Agent) Send() model.Message {
	return Msg{X: a.x, D: 0}
}

// Receive applies the consensus update. The agent's own message contributes
// (x_i − x_i) = 0, so anonymity costs nothing: no self-identification is
// needed. The MaxDegree variant — whose weight 1/N does not depend on the
// sender — factors the update through the plain message sum, the exact
// expression the vectorized engine evaluates, so both paths round floats
// identically.
func (a *Agent) Receive(msgs []model.Message) {
	if a.variant == MaxDegree {
		var sum float64
		count := 0
		for _, raw := range msgs {
			m, ok := raw.(Msg)
			if !ok {
				continue
			}
			sum += m.X
			count++
		}
		a.x = maxDegreeStep(a.x, sum, count, a.boundN)
		return
	}
	sum := 0.0
	for _, raw := range msgs {
		m, ok := raw.(Msg)
		if !ok {
			continue
		}
		sum += a.weight(m.D) * (m.X - a.x)
	}
	a.x += sum
}

// maxDegreeStep is the factored MaxDegree update x + (Σxⱼ − c·x)/N. The
// generic and vectorized paths both evaluate exactly this expression on the
// same operands, which is what makes their traces bit-identical.
func maxDegreeStep(x, sum float64, count, boundN int) float64 {
	return x + (sum-float64(count)*x)/float64(boundN)
}

// InitVector reports width 1 (the running estimate) for the MaxDegree
// variant, whose constant weight 1/N makes the update linear in the message
// sum. Standard and Lazy weights depend on each sender's degree — the
// update is not a function of the sum — so they decline vectorization.
func (a *Agent) InitVector(universe []float64) int {
	if a.variant != MaxDegree {
		return 0
	}
	return 1
}

// SendVector writes the estimate, matching Send.
func (a *Agent) SendVector(outdeg int, dst []float64) { dst[0] = a.x }

// ReceiveVector applies the factored MaxDegree update.
func (a *Agent) ReceiveVector(sum []float64, count int) {
	a.x = maxDegreeStep(a.x, sum[0], count, a.boundN)
}

// weight returns w_ij for a neighbour of degree d_j. For the degree-aware
// variants both endpoints compute the same value from the exchanged
// degrees; for MaxDegree the common weight is 1/N.
func (a *Agent) weight(neighbourDeg int) float64 {
	switch a.variant {
	case Standard:
		return 1 / float64(maxInt(a.deg, neighbourDeg))
	case Lazy:
		return 1 / float64(2*maxInt(a.deg, neighbourDeg))
	default:
		return 1 / float64(a.boundN)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Output returns the running estimate.
func (a *Agent) Output() model.Value { return a.x }
