package core

import (
	"errors"
	"fmt"

	"anonnet/internal/algorithms/freqcalc"
	"anonnet/internal/algorithms/gossip"
	"anonnet/internal/algorithms/metropolis"
	"anonnet/internal/algorithms/onebit"
	"anonnet/internal/algorithms/pushsum"
	"anonnet/internal/funcs"
	"anonnet/internal/model"
)

// ErrNotReimplemented marks Table 2's no-help and leader symmetric cells,
// realized by Di Luna & Viglietta's algorithm (DESIGN.md §6).
var ErrNotReimplemented = errors.New("realized by Di Luna & Viglietta's algorithm, not reimplemented (DESIGN.md §6)")

// Setting is one cell of the computability tables, instantiated with
// concrete parameters.
type Setting struct {
	// Kind is the communication model.
	Kind model.Kind
	// Static selects Table 1 (static strongly connected) vs Table 2
	// (dynamic, finite dynamic diameter).
	Static bool
	// Row is the centralized-help row.
	Row Row
	// BoundN instantiates RowBound (a known bound N ≥ n).
	BoundN int
	// KnownN instantiates RowSize (the exact size).
	KnownN int
	// Leaders instantiates RowLeader (the known leader count; the leaders
	// themselves are marked via model.Input.Leader).
	Leaders int
}

func (s Setting) validate() error {
	desc, err := model.Lookup(s.Kind)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if s.Row < RowNoHelp || s.Row > RowLeader {
		return fmt.Errorf("core: invalid row %d", int(s.Row))
	}
	if h := s.Help(); s.Row != RowNoHelp && h.BoundN < 1 && h.KnownN < 1 && h.Leaders < 1 {
		return fmt.Errorf("core: row %v needs its parameter ≥ 1, got %+v", s.Row, h)
	}
	if !s.Static && desc.Lifting == model.LiftCovering {
		return fmt.Errorf("core: %s is only meaningful for static networks (§2.2)", desc.Name)
	}
	return nil
}

// Help returns the help of the setting's row alone: a Setting built
// generically may fill several fields, and an algorithm waiting for
// leaders the inputs do not mark would never produce a valid candidate.
func (s Setting) Help() model.Help {
	switch s.Row {
	case RowBound:
		return model.Help{BoundN: s.BoundN}
	case RowSize:
		return model.Help{KnownN: s.KnownN}
	case RowLeader:
		return model.Help{Leaders: s.Leaders}
	default:
		return model.Help{}
	}
}

// Cell returns the table cell this setting instantiates.
func (s Setting) Cell() Cell {
	if s.Static {
		return StaticCell(s.Kind, s.Row)
	}
	return DynamicCell(s.Kind, s.Row)
}

// NewFactory dispatches a function to the algorithm realizing the
// setting's positive cell:
//
//   - simple broadcast (any network): gossip, for set-based f;
//   - one-bit broadcast (any network, binary inputs): the alternating
//     OR/AND parity-flooding algorithm (onebit), for set-based f;
//   - static od/op/symmetric: the minimum-base + kernel pipeline of §4.2
//     (freqcalc), exact in finite time, multiset-based with size/leaders;
//   - dynamic outdegree awareness: Push-Sum (Algorithm 1), with the §5.4
//     rounding and §5.5 leader variants;
//   - dynamic symmetric communications: per-value Metropolis consensus
//     (after [11, 24]), with bound/size reconstruction.
//
// It returns an error when the table says the cell cannot compute f —
// making the impossibility half of the characterization part of the API
// contract.
func NewFactory(f funcs.Func, s Setting) (model.Factory, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	cell := s.Cell()
	if !cell.Class.Contains(f.Class) {
		return nil, fmt.Errorf("core: %q is %v but the cell (%v, %v, static=%t) computes only %v functions (%s)",
			f.Name, f.Class, s.Kind, s.Row, s.Static, cell.Class, cell.Source)
	}
	help := s.Help()
	switch {
	case s.Kind == model.SimpleBroadcast:
		return gossip.NewFactory(f)
	case s.Kind == model.OneBitBroadcast:
		return onebit.NewFactory(f)
	case s.Static:
		return freqcalc.NewFactory(s.Kind, f, help)
	case s.Kind == model.OutdegreeAware:
		return pushsum.NewFrequencyFactory(f, help)
	case s.Kind == model.Symmetric:
		if help.BoundN == 0 && help.KnownN == 0 {
			// Table 2's no-help and leader symmetric cells are realized in
			// the paper by Di Luna & Viglietta's history-tree algorithm,
			// which needs unbounded bandwidth and is not reimplemented
			// (DESIGN.md §6). There is no bound to size the Metropolis
			// weights with, so these cells have no runnable factory here.
			return nil, fmt.Errorf("core: dynamic symmetric row %v: %w; use RowBound or RowSize", s.Row, ErrNotReimplemented)
		}
		return metropolis.NewFreqFactory(f, metropolis.MaxDegree, help)
	default:
		return nil, fmt.Errorf("core: no algorithm for setting %+v", s)
	}
}
