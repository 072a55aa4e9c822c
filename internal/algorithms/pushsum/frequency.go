package pushsum

import (
	"fmt"
	"math"
	"slices"

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

	// vals lists the values whose instance this agent has joined, in
	// ascending order; y and z are the per-value masses aligned with it.
	// Both entry points (map messages and dense vector rows) update this
	// one representation in place, and values only ever join.
	outdeg int
	vals   []float64
	y, z   []float64
	out    model.Value

	// x is scratch for the quotients the output is reconstructed from;
	// memo remembers the last reconstruction so f runs only on a change.
	x    []float64
	memo reconstruct.Memo

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
			vals:   []float64{in.Value},
			y:      []float64{1},
			z:      []float64{initialMass(help, in.Leader)},
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

// join inserts value w, not yet joined, at its sorted position with
// masses (y, z).
func (a *Frequency) join(w, y, z float64) {
	i, _ := slices.BinarySearch(a.vals, w)
	a.vals = slices.Insert(a.vals, i, w)
	a.y = slices.Insert(a.y, i, y)
	a.z = slices.Insert(a.z, i, z)
}

// SendOutdegree ships the full arrays with the current outdegree.
func (a *Frequency) SendOutdegree(outdeg int) model.Message {
	a.outdeg = outdeg
	y, z := a.massMaps()
	return FreqMsg{Y: y, Z: z, D: outdeg}
}

// massMaps returns fresh value → mass maps of y and z, the form of
// messages and checkpoints.
func (a *Frequency) massMaps() (y, z map[float64]float64) {
	y = make(map[float64]float64, len(a.vals))
	z = make(map[float64]float64, len(a.vals))
	for i, w := range a.vals {
		y[w] = a.y[i]
		z[w] = a.z[i]
	}
	return y, z
}

// Receive applies the per-value Push-Sum update: for every value ω known to
// any sender, sum the shares of the senders aware of ω; an agent joining
// instance ω adds its retained initial mass once.
func (a *Frequency) Receive(msgs []model.Message) {
	incoming := make([]FreqMsg, 0, len(msgs))
	for _, raw := range msgs {
		if m, ok := raw.(FreqMsg); ok && m.D >= 1 {
			incoming = append(incoming, m)
		}
	}
	for i, w := range a.vals {
		a.y[i], a.z[i] = shareSums(incoming, w)
	}
	for _, m := range incoming {
		for w := range m.Y {
			if _, joined := slices.BinarySearch(a.vals, w); joined {
				continue
			}
			// First time processing instance ω: incorporate the retained
			// initial mass exactly once (the virtual self-loop of the
			// asynchronous-start reduction).
			y, z := shareSums(incoming, w)
			a.join(w, y, z+initialMass(a.help, a.leader))
		}
	}
	a.refreshOutput()
}

// shareSums adds up, in message order, the instance-ω shares of the
// senders aware of ω.
func shareSums(incoming []FreqMsg, w float64) (y, z float64) {
	for _, m := range incoming {
		my, aware := m.Y[w]
		if !aware {
			continue // unaware sender: its mass is retained at its end
		}
		d := float64(m.D)
		y += my / d
		z += m.Z[w] / d
	}
	return y, z
}

// InitVector reports width 3 per universe value: the y-share, the z-share,
// and an awareness flag. The flag is load-bearing: an agent aware of ω with
// zero mass differs from an unaware one — awareness is what triggers a
// neighbour's one-time initial-mass join — and the flat rows must carry
// that distinction, since a dense 0 cannot.
func (a *Frequency) InitVector(universe []float64) int {
	a.universe = universe
	// A connected network eventually runs every instance everywhere, so
	// the per-value slices get their full capacity once, up front.
	grow := len(universe) - len(a.vals)
	a.vals = slices.Grow(a.vals, grow)
	a.y = slices.Grow(a.y, grow)
	a.z = slices.Grow(a.z, grow)
	return 3 * len(universe)
}

// SendVector lays the per-value shares out densely. The shares are the very
// m.Y[ω]/d divisions Receive performs on arrival, moved to the sender —
// identical operands, identical bits — and an unaware value's (0, 0, 0) row
// contributes exact zeros that leave the receiver's running sums unchanged
// (the masses are non-negative, so no −0 can arise). The joined values are
// a sorted subset of the universe, so one merge walk places them.
func (a *Frequency) SendVector(outdeg int, dst []float64) {
	a.outdeg = outdeg
	d := float64(outdeg)
	j := 0
	for k, w := range a.universe {
		if j < len(a.vals) && a.vals[j] == w {
			dst[3*k] = a.y[j] / d
			dst[3*k+1] = a.z[j] / d
			dst[3*k+2] = 1
			j++
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
	j := 0
	for k, w := range a.universe {
		if j < len(a.vals) && a.vals[j] == w {
			a.y[j], a.z[j] = sum[3*k], sum[3*k+1]
			j++
			continue
		}
		if sum[3*k+2] == 0 {
			continue // ω not in support: no instance here yet
		}
		a.join(w, sum[3*k], sum[3*k+1]+initialMass(a.help, a.leader))
		j++
	}
	a.refreshOutput()
}

// quotients fills the scratch with the per-value quotients
// x[ω] = y[ω]/z[ω], aligned with vals. Values with z[ω] = 0 get +Inf, as
// §5.5 notes can transiently happen in the leader variant.
func (a *Frequency) quotients() []float64 {
	a.x = a.x[:0]
	for i, y := range a.y {
		q := math.Inf(1)
		if z := a.z[i]; z != 0 {
			q = y / z
		}
		a.x = append(a.x, q)
	}
	return a.x
}

// Quotients returns the raw per-value quotients x[ω] = y[ω]/z[ω] (which
// converge to ν(ω) without leaders and to multiplicity(ω)/ℓ in the
// leader variant), +Inf where z[ω] = 0.
func (a *Frequency) Quotients() map[float64]float64 {
	out := make(map[float64]float64, len(a.vals))
	for i, q := range a.quotients() {
		out[a.vals[i]] = q
	}
	return out
}

// Mass returns the total (Σy, Σz) held by this agent, for the conservation
// property tests.
func (a *Frequency) Mass() (y, z float64) {
	for i := range a.vals {
		y += a.y[i]
		z += a.z[i]
	}
	return y, z
}

// refreshOutput re-evaluates f when the reconstructed multiset changed; a
// failed reconstruction keeps the previous output.
func (a *Frequency) refreshOutput() {
	if a.memo.Update(a.vals, a.quotients(), a.help) {
		a.out = a.f.Eval(a.memo.Args())
	}
}

// Output returns the current output value.
func (a *Frequency) Output() model.Value { return a.out }
