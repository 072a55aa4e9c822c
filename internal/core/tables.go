// Package core ties the library together into the paper's contribution:
// the computability characterization of anonymous networks. It exposes
// Tables 1 and 2 as a decision procedure, dispatches problems to the
// algorithm that realizes each positive cell, and provides the executable
// impossibility witnesses (lifting lemma + ring fibrations) that regenerate
// the negative cells.
package core

import (
	"fmt"

	"anonnet/internal/funcs"
	"anonnet/internal/model"
)

// Row is a centralized-help row of Tables 1 and 2.
type Row int

// The rows, in table order.
const (
	// RowNoHelp: no centralized help.
	RowNoHelp Row = iota + 1
	// RowBound: a bound N over n is known.
	RowBound
	// RowSize: n is known exactly.
	RowSize
	// RowLeader: one (or ℓ known) leaders are present.
	RowLeader
)

// String names the row as in the tables.
func (r Row) String() string {
	switch r {
	case RowNoHelp:
		return "no centralized help"
	case RowBound:
		return "a bound over n is known"
	case RowSize:
		return "n is known"
	case RowLeader:
		return "one leader"
	default:
		return fmt.Sprintf("Row(%d)", int(r))
	}
}

// Rows lists the rows in table order.
func Rows() []Row { return []Row{RowNoHelp, RowBound, RowSize, RowLeader} }

// Cell is one entry of Table 1 or Table 2: the exact class of computable
// functions, or an open cell.
type Cell struct {
	// Class is the largest class of computable functions (exactly
	// characterized unless Open).
	Class funcs.Class
	// Open marks the "?" cells of Table 2, where the exact
	// characterization is open; Class then holds the best known lower
	// bound (everything continuous enough in that class is computable).
	Open bool
	// ContinuityOnly notes that, short of exactness, computability is
	// restricted to functions δ-continuous in frequency (Cor. 5.5).
	ContinuityOnly bool
	// Source cites the result establishing the cell.
	Source string
}

// String renders the cell as the tables print it.
func (c Cell) String() string {
	s := c.Class.String()
	if c.ContinuityOnly {
		s += " (continuous in frequency)"
	}
	if c.Open {
		s = "? ≥ " + s
	}
	return s + " — " + c.Source
}

// StaticCell returns Table 1's entry for the given model and help row:
// computable functions in static, strongly connected anonymous networks.
func StaticCell(kind model.Kind, row Row) Cell {
	if kind == model.OneBitBroadcast {
		// One bit per round is syntactically a restriction of simple
		// broadcast (σ : Q → {0,1} ⊆ σ : Q → M), so the simple-broadcast
		// ceiling applies a fortiori; over binary inputs the set-based
		// class is attained by parity flooding (the positive half realized
		// by internal/algorithms/onebit).
		return Cell{Class: funcs.SetBased, Source: "Blanc, Di Luna & Viglietta (one-bit; binary inputs)"}
	}
	if kind == model.SimpleBroadcast {
		switch row {
		case RowNoHelp:
			return Cell{Class: funcs.SetBased, Source: "Hendrickx et al. [20]"}
		case RowSize:
			// Footnote a of Table 1: for n ≥ 4; in smaller networks the
			// topology always allows recovering the multiset (J. Chalopin).
			return Cell{Class: funcs.SetBased, Source: "Boldi & Vigna [6] (n ≥ 4; footnote a)"}
		case RowLeader:
			// Footnote b: [6] does not consider leaders, but the argument
			// adapts.
			return Cell{Class: funcs.SetBased, Source: "Boldi & Vigna [6] (adapted; footnote b)"}
		default:
			return Cell{Class: funcs.SetBased, Source: "Boldi & Vigna [6]"}
		}
	}
	// Outdegree awareness, symmetric communications, output port awareness
	// are equivalent in computational power (Theorem 4.1).
	switch row {
	case RowNoHelp:
		return Cell{Class: funcs.FrequencyBased, Source: "Theorem 4.1"}
	case RowBound:
		return Cell{Class: funcs.FrequencyBased, Source: "Corollary 4.2"}
	case RowSize:
		return Cell{Class: funcs.MultisetBased, Source: "Corollary 4.3"}
	case RowLeader:
		return Cell{Class: funcs.MultisetBased, Source: "Corollary 4.4"}
	default:
		return Cell{Class: funcs.SetBased, Source: "invalid row"}
	}
}

// DynamicCell returns Table 2's entry for the given model and help row:
// computable functions in dynamic anonymous networks of finite dynamic
// diameter. The paper's Table 2 has no output-port column, since port
// labellings are only meaningful on static graphs (§2.2), and NewFactory
// rejects dynamic output-port settings; for queries, DynamicCell answers
// with the outdegree-awareness cell.
func DynamicCell(kind model.Kind, row Row) Cell {
	switch kind {
	case model.SimpleBroadcast:
		return Cell{Class: funcs.SetBased, Source: "Hendrickx et al. [20]"}
	case model.OneBitBroadcast:
		// As in Table 1: the simple-broadcast ceiling inherits downward to
		// the one-bit restriction, and parity flooding attains it over
		// binary inputs in any dynamic network of finite dynamic diameter.
		return Cell{Class: funcs.SetBased, Source: "Blanc, Di Luna & Viglietta (one-bit; binary inputs)"}
	case model.OutdegreeAware, model.OutputPortAware:
		switch row {
		case RowNoHelp:
			return Cell{Class: funcs.FrequencyBased, Open: true, ContinuityOnly: true, Source: "Corollary 5.5 (exact characterization open)"}
		case RowBound:
			return Cell{Class: funcs.FrequencyBased, Source: "Corollary 5.3"}
		case RowSize:
			return Cell{Class: funcs.MultisetBased, Source: "Corollary 5.4"}
		case RowLeader:
			return Cell{Class: funcs.MultisetBased, Open: true, Source: "§5.5 (exact characterization open)"}
		}
	case model.Symmetric:
		switch row {
		case RowNoHelp:
			return Cell{Class: funcs.FrequencyBased, Source: "Di Luna & Viglietta [26]"}
		case RowBound:
			return Cell{Class: funcs.FrequencyBased, Source: "CB & LM [11]"}
		case RowSize:
			return Cell{Class: funcs.MultisetBased, Source: "CB & LM [11]"}
		case RowLeader:
			return Cell{Class: funcs.MultisetBased, Source: "Di Luna & Viglietta [25]"}
		}
	}
	return Cell{Class: funcs.SetBased, Source: "invalid cell"}
}

// Computable reports whether a function of class c is computable in the
// given setting, per the tables.
func Computable(c funcs.Class, kind model.Kind, row Row, static bool) bool {
	return Setting{Kind: kind, Static: static, Row: row}.Cell().Class.Contains(c)
}
