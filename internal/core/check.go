package core

import (
	"errors"
	"fmt"

	"anonnet/internal/engine"
	"anonnet/internal/funcs"
	"anonnet/internal/model"
)

// CellCheck regenerates the cells of Tables 1 and 2 empirically: a cell's
// positive half runs the algorithm NewFactory dispatches the cell's
// representative function to on N agents, for at most Rounds rounds; its
// negative half checks that the dispatcher refuses a function one class
// up and regenerates the ceiling with the §4.1 witnesses. Seed seeds the
// random schedules, the engines and the witnesses.
type CellCheck struct {
	N, Rounds int
	Seed      int64
}

// StandardInputs returns the valuation the tables and F2/F4 run on:
// values 1, 2, 2 repeated, or 1, 0, 0 for a model taking binary inputs.
func StandardInputs(n int, binary bool) []model.Input {
	pattern := []float64{1, 2, 2}
	if binary {
		pattern = []float64{1, 0, 0}
	}
	out := make([]model.Input, n)
	for i := range out {
		out[i] = model.Input{Value: pattern[i%len(pattern)]}
	}
	return out
}

// setting instantiates a cell for N agents: a bound N + 2, the exact size
// N, one leader.
func (c CellCheck) setting(kind model.Kind, row Row, static bool) Setting {
	return Setting{Kind: kind, Static: static, Row: row, BoundN: c.N + 2, KnownN: c.N, Leaders: 1}
}

// config is the engine configuration of s's positive run: the standard
// inputs, with a leader mark on agent 0 in the leader row, on the cell's
// network.
func (c CellCheck) config(d *model.Descriptor, s Setting, factory model.Factory) engine.Config {
	inputs := StandardInputs(c.N, d.BinaryInputs)
	if s.Row == RowLeader {
		inputs[0].Leader = true
	}
	return engine.Config{Schedule: cellSchedule(s, d, c.N, c.Seed), Kind: d.Kind, Inputs: inputs, Factory: factory, Seed: c.Seed}
}

// Positive runs the positive half of the cell (kind, row, static) until
// every output is within 1e-6 of the representative function's value. It
// returns the rounds that took, and the run as cmd/tables logs it. A cell
// realized by an algorithm not reimplemented here (ErrNotReimplemented)
// runs nothing and returns 0 rounds.
func (c CellCheck) Positive(kind model.Kind, row Row, static bool) (int, string, error) {
	d, err := model.Lookup(kind)
	if err != nil {
		return 0, "", fmt.Errorf("core: %w", err)
	}
	s := c.setting(kind, row, static)
	f := s.Cell().Representative()
	factory, err := NewFactory(f, s)
	if errors.Is(err, ErrNotReimplemented) {
		return 0, "positive half delegated to Di Luna & Viglietta's algorithm (not reimplemented, DESIGN.md §6)", nil
	}
	if err != nil {
		return 0, "", fmt.Errorf("no factory: %w", err)
	}
	cfg := c.config(d, s, factory)
	want := f.FromVector(values(cfg.Inputs))
	res, err := runClose(cfg, want, 1e-6, c.Rounds)
	if err != nil {
		return 0, "", err
	}
	if !res.Converged {
		return 0, "", fmt.Errorf("%s did not converge to %v within %d rounds (max err %g)", f.Name, want, c.Rounds, res.MaxErr)
	}
	return res.Rounds, fmt.Sprintf("%s → %v in %d rounds", f.Name, want, res.Rounds), nil
}

// Check verifies both halves of the cell (kind, row, static). It returns
// what the verified halves showed, one line per half with something to
// report, and the first failure.
func (c CellCheck) Check(kind model.Kind, row Row, static bool) ([]string, error) {
	_, positive, err := c.Positive(kind, row, static)
	if err != nil {
		return nil, err
	}
	log := []string{positive}
	negative, err := c.negative(kind, row, static)
	if negative != "" {
		log = append(log, negative)
	}
	return log, err
}

// negative regenerates the cell's ceiling: a function one class up must
// be refused by the dispatcher and, on Table 1, be witnessed
// indistinguishable by the §4.1 construction. It returns what it
// verified, or "" when there was nothing to report.
func (c CellCheck) negative(kind model.Kind, row Row, static bool) (string, error) {
	d, err := model.Lookup(kind)
	if err != nil {
		return "", fmt.Errorf("core: %w", err)
	}
	s := c.setting(kind, row, static)
	cell := s.Cell()
	if cell.Class == funcs.MultisetBased || cell.Open {
		return "", nil // nothing above multiset-based (Lemma 3.3); open cells have no proven ceiling
	}
	above := funcs.Average()
	if cell.Class == funcs.FrequencyBased {
		above = funcs.Sum()
	}
	if _, err := NewFactory(above, s); err == nil {
		return "", fmt.Errorf("dispatcher accepted %s beyond the cell's class", above.Name)
	}
	if d.BinaryInputs {
		// One bit per round is a syntactic restriction of simple broadcast
		// (σ : Q → {0,1} ⊆ σ : Q → M), so the set-based ceiling is
		// inherited from the broadcast witness; the witness constructions
		// use non-binary input multisets the one-bit algorithm does not
		// take.
		return "ceiling inherited from simple broadcast (dispatcher refusal verified)", nil
	}
	if !static {
		return "", nil // dynamic negative cells inherit from the static witnesses
	}
	// A blind cast lifts along any fibration: same set, different
	// frequencies. Others: same frequencies, different sizes (sum ceiling).
	witness := funcs.Average()
	if d.Lifting == model.LiftAny {
		witness = funcs.Max()
	}
	factory, err := NewFactory(witness, s)
	if err != nil {
		return "", fmt.Errorf("witness factory: %w", err)
	}
	if d.Lifting == model.LiftAny {
		rep, err := BroadcastSetCeilingWitness(factory, map[float64]int{1: 1, 5: 1}, []int{1, 2}, []int{1, 4}, 40, c.Seed)
		if err != nil || !rep.Agree {
			return "", fmt.Errorf("broadcast ceiling witness failed: %v", err)
		}
		return "broadcast ceiling witness: " + rep.Detail, nil
	}
	if d.Lifting == model.LiftSymmetric {
		// The §4.1 ring construction uses directed rings; symmetric
		// equivalence (Theorem 4.1) lets the od witness stand in.
		kind = model.OutdegreeAware
	}
	rep, err := RingImpossibilityWitness(factory, kind, map[float64]int{1: 2, 5: 1}, 2, 3, 80, c.Seed)
	if err != nil || !rep.Agree {
		return "", fmt.Errorf("ring witness failed (err=%v)", err)
	}
	return "ring witness (sum would need 6·μ ≠ 9·μ): " + rep.Detail, nil
}

// runClose runs cfg until every output is within eps of target, for at
// most maxRounds rounds.
func runClose(cfg engine.Config, target, eps float64, maxRounds int) (*engine.CloseResult, error) {
	e, err := engine.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	res, err := engine.RunUntilClose(e, target, model.Euclid, eps, maxRounds)
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	return res, nil
}

func values(inputs []model.Input) []float64 {
	vals := make([]float64, len(inputs))
	for i, in := range inputs {
		vals[i] = in.Value
	}
	return vals
}
