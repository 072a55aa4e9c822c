package pushsum

import (
	"fmt"
	"math"

	"anonnet/internal/funcs"
	"anonnet/internal/model"
	"anonnet/internal/multiset"
	"anonnet/internal/reconstruct"
)

// FreqMsg is the per-round message of the frequency algorithm: the sender's
// full (y, z) arrays, undivided, plus its current outdegree — the
// ⟨y_i, z_i, d⁻_i⟩ of Algorithm 1.
type FreqMsg struct {
	Y, Z map[float64]float64
	D    int
}

// Frequency runs one Push-Sum instance per value present in the network
// (Algorithm 1) under outdegree awareness.
//
// Deviation from the transcribed pseudocode, recorded in DESIGN.md §6:
// lines 9–10, read literally, patch a missing entry of a sender with
// z = 1 every round, which injects z-mass whenever an agent stays unaware
// of ω for several rounds (on the 3-path with ω at one end, total z-mass
// settles at 19/6 ≠ 3). We implement the column-stochastic emulation of the
// asynchronous-start reduction (§5.3) that the paper's own correctness
// argument appeals to: a sender unaware of ω contributes nothing to
// instance ω, and an agent incorporates its retained unit mass exactly once
// — at the round it first processes ω. Total z-mass is then exactly n once
// every agent has joined, and x[ω] → multiplicity(ω)/n.
//
// The help selects the output reconstruction (reconstruct.FromHelp). With
// ℓ known leaders only leaders start with z-mass, so x[ω] converges to
// multiplicity(ω)/ℓ (§5.5).
type Frequency struct {
	f      funcs.Func
	help   model.Help
	leader bool

	outdeg int
	y, z   map[float64]float64
	out    model.Value

	// universe is the engine-provided dense layout for vectorized runs:
	// sorted distinct input values, read-only (see model.VectorAgent).
	universe []float64
}

var (
	_ model.OutdegreeSender = (*Frequency)(nil)
	_ model.VectorAgent     = (*Frequency)(nil)
)

// NewFrequencyFactory checks f against the paper's characterization for
// the given help and returns the agent factory.
func NewFrequencyFactory(f funcs.Func, help model.Help) (model.Factory, error) {
	if err := reconstruct.Check(f, help); err != nil {
		return nil, fmt.Errorf("pushsum: %w", err)
	}
	return func(in model.Input) model.Agent {
		return &Frequency{
			f:      f,
			help:   help,
			leader: in.Leader,
			y:      map[float64]float64{in.Value: 1},
			z:      map[float64]float64{in.Value: initialMass(help, in.Leader)},
			out:    f.Eval(multiset.New(in.Value)),
		}
	}, nil
}

// initialMass is the z initialization: 1 in the standard algorithm; in the
// leader variant 1 for leaders and 0 otherwise (§5.5).
func initialMass(help model.Help, leader bool) float64 {
	if help.Leaders > 0 && !leader {
		return 0
	}
	return 1
}

// SendOutdegree ships the full arrays with the current outdegree.
func (a *Frequency) SendOutdegree(outdeg int) model.Message {
	a.outdeg = outdeg
	y := make(map[float64]float64, len(a.y))
	z := make(map[float64]float64, len(a.z))
	for k, v := range a.y {
		y[k] = v
	}
	for k, v := range a.z {
		z[k] = v
	}
	return FreqMsg{Y: y, Z: z, D: outdeg}
}

// Receive applies the per-value Push-Sum update: for every value ω known to
// any sender, sum the shares of the senders aware of ω; an agent joining
// instance ω adds its retained initial mass once.
func (a *Frequency) Receive(msgs []model.Message) {
	incoming := make([]FreqMsg, 0, len(msgs))
	support := make(map[float64]bool, len(a.y))
	for w := range a.y {
		support[w] = true
	}
	for _, raw := range msgs {
		m, ok := raw.(FreqMsg)
		if !ok || m.D < 1 {
			continue
		}
		incoming = append(incoming, m)
		for w := range m.Y {
			support[w] = true
		}
	}
	newY := make(map[float64]float64, len(support))
	newZ := make(map[float64]float64, len(support))
	for w := range support {
		var ySum, zSum float64
		for _, m := range incoming {
			if _, aware := m.Y[w]; !aware {
				continue // unaware sender: its mass is retained at its end
			}
			d := float64(m.D)
			ySum += m.Y[w] / d
			zSum += m.Z[w] / d
		}
		if _, joined := a.y[w]; !joined {
			// First time processing instance ω: incorporate the retained
			// initial mass exactly once (the virtual self-loop of the
			// asynchronous-start reduction).
			zSum += initialMass(a.help, a.leader)
		}
		newY[w] = ySum
		newZ[w] = zSum
	}
	a.y, a.z = newY, newZ
	a.refreshOutput()
}

// InitVector reports width 3 per universe value: the y-share, the z-share,
// and an awareness flag. The flag is load-bearing: an agent aware of ω with
// zero mass differs from an unaware one — awareness is what triggers a
// neighbour's one-time initial-mass join — and the flat rows must carry
// that distinction, since a dense 0 cannot.
func (a *Frequency) InitVector(universe []float64) int {
	a.universe = universe
	return 3 * len(universe)
}

// SendVector lays the per-value shares out densely. The shares are the very
// m.Y[ω]/d divisions Receive performs on arrival, moved to the sender —
// identical operands, identical bits — and an unaware value's (0, 0, 0) row
// contributes exact zeros that leave the receiver's running sums unchanged
// (the masses are non-negative, so no −0 can arise).
func (a *Frequency) SendVector(outdeg int, dst []float64) {
	a.outdeg = outdeg
	d := float64(outdeg)
	for k, w := range a.universe {
		if y, aware := a.y[w]; aware {
			dst[3*k] = y / d
			dst[3*k+1] = a.z[w] / d
			dst[3*k+2] = 1
		} else {
			dst[3*k] = 0
			dst[3*k+1] = 0
			dst[3*k+2] = 0
		}
	}
}

// ReceiveVector applies the same per-value update as Receive: a value is in
// support when some sender was aware of it (flag sum > 0) or this agent
// already runs its instance; a joining agent incorporates its retained
// initial mass exactly once.
func (a *Frequency) ReceiveVector(sum []float64, count int) {
	newY := make(map[float64]float64, len(a.y))
	newZ := make(map[float64]float64, len(a.y))
	for k, w := range a.universe {
		_, joined := a.y[w]
		if sum[3*k+2] == 0 && !joined {
			continue // ω not in support: no instance here yet
		}
		ySum, zSum := sum[3*k], sum[3*k+1]
		if !joined {
			zSum += initialMass(a.help, a.leader)
		}
		newY[w] = ySum
		newZ[w] = zSum
	}
	a.y, a.z = newY, newZ
	a.refreshOutput()
}

// Quotients returns the raw per-value quotients x[ω] = y[ω]/z[ω] (which
// converge to ν(ω) without leaders and to multiplicity(ω)/ℓ in the
// leader variant). Values with z[ω] = 0 map to +Inf, as §5.5 notes can
// transiently happen.
func (a *Frequency) Quotients() map[float64]float64 {
	out := make(map[float64]float64, len(a.y))
	for w, y := range a.y {
		z := a.z[w]
		if z == 0 {
			out[w] = math.Inf(1)
			continue
		}
		out[w] = y / z
	}
	return out
}

// Mass returns the total (Σy, Σz) held by this agent, for the conservation
// property tests.
func (a *Frequency) Mass() (y, z float64) {
	for _, v := range a.y {
		y += v
	}
	for _, v := range a.z {
		z += v
	}
	return y, z
}

func (a *Frequency) refreshOutput() {
	ms, ok := reconstruct.FromHelp(a.Quotients(), a.help)
	if !ok {
		return
	}
	a.out = a.f.Eval(ms)
}

// Output returns the current output value.
func (a *Frequency) Output() model.Value { return a.out }
