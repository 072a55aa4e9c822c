// Package minbase implements the distributed minimum-base computation at
// the core of §4.2 (after Boldi–Vigna [8]): in a static strongly connected
// anonymous network, every agent eventually knows the minimum base of the
// (valued) network graph — the quotient by the coarsest stable partition —
// and from round n + D onwards its candidate is correct forever.
//
// Views are represented by hash labels: the label of an agent at level ℓ is
// a 128-bit hash of (its input value, its outdegree, its own level-(ℓ-1)
// label, and the multiset of its in-neighbours' level-(ℓ-1) labels, with
// ports in the output-port-aware model). Agents gossip the signature table
// (level, label) → signature; each agent extracts a candidate base from the
// deepest stable stretch of levels of its table (see candidate.go). Labels
// are self-certifying — label = hash(signature) — which is what the reset
// machinery of agent.go uses to recover from state corruption.
//
// A label is the FNV-128a hash of the signature's canonical text (see
// Sig.Label), stored as its 16 raw bytes. The text spells every referenced
// label as 32 lower-case hex digits, as when labels were hex strings, and
// raw bytes sort in the order of their hex strings, so every label and
// every label-sorted base (buildBase's vertex order, hence each *Base an
// agent outputs) is what the hex-string encoding gave. A new digest or
// encoding would permute base vertices and change the printed bases.
//
// DESIGN.md §6 records the two deliberate substitutions: exact view trees →
// hash labels (collision probability ≈ 2⁻⁶⁴ per pair, negligible at
// simulation scale), and Boldi–Vigna's finite-state self-stabilization →
// epoch-numbered reset waves recovering from random corruption.
package minbase

import (
	"bytes"
	"cmp"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"

	"anonnet/internal/model"
)

// EncodeInput canonically encodes an agent input (value, leader flag) as
// the vertex label of the valued graph.
func EncodeInput(in model.Input) string {
	// 'x' (hex) formatting is exact for float64, so distinct values never
	// share a label.
	return strconv.FormatFloat(in.Value, 'x', -1, 64) + "|" + strconv.FormatBool(in.Leader)
}

// DecodeInput inverts EncodeInput.
func DecodeInput(s string) (model.Input, error) {
	val, leader, ok := strings.Cut(s, "|")
	if !ok {
		return model.Input{}, fmt.Errorf("minbase: malformed input label %q", s)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return model.Input{}, fmt.Errorf("minbase: malformed value in label %q: %v", s, err)
	}
	l, err := strconv.ParseBool(leader)
	if err != nil {
		return model.Input{}, fmt.Errorf("minbase: malformed leader flag in label %q: %v", s, err)
	}
	return model.Input{Value: v, Leader: l}, nil
}

// InRef is one group of a signature's in-neighbourhood: Count in-edges from
// neighbours labelled Prev at the previous level, on port Port (0 outside
// the output-port model).
type InRef struct {
	Prev  Label
	Port  int
	Count int
}

// Sig is the signature of a view class at some level ℓ ≥ 1: the defining
// data of the refinement step. sig.Label() is the class's label at ℓ.
// Level-0 signatures have only Value set (and Out = -1).
type Sig struct {
	// Value is the agent's encoded input (vertex valuation).
	Value string
	// Out is the agent's outdegree (self-loop included), or -1 if not yet
	// known (level 0).
	Out int
	// Prev is the agent's own label at level ℓ-1 (zero at level 0).
	Prev Label
	// In lists the in-neighbour labels at ℓ-1, grouped and sorted by
	// (Prev, Port) (nil at level 0).
	In []InRef
}

// Label is a view-class label: the FNV-128a hash of a signature, as 16
// bytes, which compare in the order of their hex strings. The zero Label
// is "no label", the Prev of a level-0 signature; it contributes no bytes
// to a canonical text.
type Label [16]byte

// String renders the label as 32 lower-case hex digits.
func (l Label) String() string { return hex.EncodeToString(l[:]) }

func compareLabels(a, b Label) int { return bytes.Compare(a[:], b[:]) }

// Label returns the signature's label: FNV-128a over the canonical text
//
//	V=<Value>;O=<Out>;P=<Prev>;I=<Prev>/<Port>*<Count>,…
//
// with labels in hex and integers in decimal, written to the hash in
// pieces from a stack buffer. Labels are self-certifying: a table entry
// (level, label, sig) is valid iff label == sig.Label().
func (s Sig) Label() Label {
	h := fnv.New128a()
	var buf [128]byte
	b := append(buf[:0], "V="...)
	b = append(b, s.Value...)
	b = append(b, ";O="...)
	b = strconv.AppendInt(b, int64(s.Out), 10)
	b = append(b, ";P="...)
	b = appendLabel(b, s.Prev)
	h.Write(append(b, ";I="...))
	for _, r := range s.In {
		b = appendLabel(buf[:0], r.Prev)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(r.Port), 10)
		b = append(b, '*')
		b = strconv.AppendInt(b, int64(r.Count), 10)
		h.Write(append(b, ','))
	}
	var l Label
	h.Sum(l[:0])
	return l
}

func appendLabel(b []byte, l Label) []byte {
	if l == (Label{}) {
		return b
	}
	return hex.AppendEncode(b, l[:])
}

// groupRefs builds the sorted, grouped In list from raw (label, port)
// observations; it reorders raw.
func groupRefs(raw []refObs) []InRef {
	slices.SortFunc(raw, func(a, b refObs) int {
		if c := compareLabels(a.label, b.label); c != 0 {
			return c
		}
		return cmp.Compare(a.port, b.port)
	})
	var out []InRef
	for _, r := range raw {
		if n := len(out); n > 0 && out[n-1].Prev == r.label && out[n-1].Port == r.port {
			out[n-1].Count++
			continue
		}
		out = append(out, InRef{Prev: r.label, Port: r.port, Count: 1})
	}
	return out
}

type refObs struct {
	label Label
	port  int
}

// Key identifies a view class in the gossiped table.
type Key struct {
	Level int
	Label Label
}

// Msg is the per-round message: the sender's current epoch, its full label
// history, the port the copy is sent on (output-port model only), and a
// snapshot of its signature table. Hist and Entries are zero-copy views of
// append-only state and must be treated as immutable — the engines deliver
// the same Msg value to several recipients.
type Msg struct {
	Epoch   int64
	Hist    []Label
	Port    int
	Entries []Entry
}
