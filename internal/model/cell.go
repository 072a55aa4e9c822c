package model

import "fmt"

// A cell of Tables 1 and 2 has two coordinates besides static/dynamic: the
// model's column, decided by what a sender knows about its audience, and
// the row's centralized help. Each is one value here: a Descriptor's
// Lifting and a Help.

// Lifting is the class of fibrations φ : G → B along which a model's
// executions lift: an algorithm run on G and on B produces identical
// outputs fibrewise (Lemma 3.1).
type Lifting int

// The fibration classes.
const (
	// LiftAny: any fibration — a blind cast (simple, one-bit broadcast).
	LiftAny Lifting = iota + 1
	// LiftOutdegree: outdegree-preserving fibrations (G_od → B_od).
	LiftOutdegree
	// LiftCovering: port-preserving coverings. Port labellings are only
	// meaningful on fixed graphs, so such a model is static-only and
	// sends one message per port.
	LiftCovering
	// LiftSymmetric: fibrations between graphs with bidirectional links.
	LiftSymmetric
)

// Help is a row's centralized help; a zero field means that knowledge is
// absent. Reconstructions use the strongest field set: leaders, then the
// size, then the bound.
type Help struct {
	// BoundN is a known bound N ≥ n (Cor. 4.2, 5.3): no larger class, but
	// exact output in finite time.
	BoundN int
	// KnownN is the exact network size (Cor. 4.3, 5.4).
	KnownN int
	// Leaders is the number of leaders, known to all agents (Cor. 4.4,
	// §5.5); the leaders are marked via Input.Leader.
	Leaders int
}

// Validate rejects negative help.
func (h Help) Validate() error {
	if h.BoundN < 0 || h.KnownN < 0 || h.Leaders < 0 {
		return fmt.Errorf("negative help %+v", h)
	}
	return nil
}

// Counts reports whether the help fixes multiplicities, not just
// frequencies, so that multiset-based functions are computable.
func (h Help) Counts() bool { return h.KnownN > 0 || h.Leaders > 0 }
