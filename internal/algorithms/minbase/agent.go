package minbase

import (
	"encoding/binary"
	"fmt"

	"anonnet/internal/model"
)

// auditPeriod is how often (in rounds) an agent re-validates its whole
// state against the self-certifying hashes. Every entry is validated when
// first learned; the periodic audit exists to catch *in-place corruption*
// of previously valid state (the self-stabilization experiments), with a
// detection latency of at most auditPeriod rounds.
const auditPeriod = 8

// Agent is the distributed minimum-base automaton. It supports the three
// models with enough sender knowledge for the task: outdegree awareness,
// output port awareness, and symmetric communications (where the outdegree
// is learned as the round-1 indegree, §2.2). It is meaningful on static
// networks, the setting of §4.
//
// Per round the agent (a) broadcasts its label history and signature table,
// (b) merges validated incoming entries, and (c) when every in-neighbour's
// history is long enough, extends its own history by one level. Candidates
// are extracted on demand by CandidateBase.
type Agent struct {
	lift       model.Lifting
	valLabel   string
	outdeg     int // -1 until learned
	degChanged bool
	epoch      int64
	round      int
	hist       []Label
	table      *Table
	// suppressRefine is set by BoundedAgent while frozen: merging and
	// reset handling proceed, but no new level is computed.
	suppressRefine bool

	// CandidateBase's cache: the table size it was computed at (the table
	// only grows within an epoch), and the shape of the level the base was
	// read from. Levels only grow too, so an unchanged shape means the
	// same base, and the same *Base is returned.
	cachedAt    int
	cachedShape levelShape
	cachedBase  *Base
	cachedOK    bool
}

var (
	_ model.Broadcaster     = (*Agent)(nil)
	_ model.OutdegreeSender = (*Agent)(nil)
	_ model.PortSender      = (*Agent)(nil)
	_ model.Corruptible     = (*Agent)(nil)
)

// NewAgent returns the automaton for one agent with the given private
// input (see NewFactory).
func NewAgent(kind model.Kind, in model.Input) (*Agent, error) {
	f, err := NewFactory(kind)
	if err != nil {
		return nil, err
	}
	return f(in).(*Agent), nil
}

// NewFactory returns a factory of minimum-base automata for a
// communication model whose senders know enough about their audience: any
// model whose executions do not lift along every fibration (outdegree
// awareness, output ports, symmetric communications).
func NewFactory(kind model.Kind) (model.Factory, error) {
	desc, err := model.Lookup(kind)
	if err != nil {
		return nil, fmt.Errorf("minbase: %w", err)
	}
	if desc.Lifting == model.LiftAny {
		return nil, fmt.Errorf("minbase: model %v cannot compute the minimum base (needs outdegree, port, or symmetry knowledge)", kind)
	}
	return func(in model.Input) model.Agent {
		a := &Agent{lift: desc.Lifting, valLabel: EncodeInput(in), outdeg: -1}
		a.reset(0)
		return a
	}, nil
}

// reset re-initializes the volatile state under the given epoch, as a
// freshly started agent would be (§2.2 asynchronous starts): level-0 label
// from the input value, a table holding only the level-0 signature.
func (a *Agent) reset(epoch int64) {
	sig0 := Sig{Value: a.valLabel, Out: -1}
	l0 := sig0.Label()
	a.epoch = epoch
	a.hist = []Label{l0}
	a.table = NewTable()
	a.table.add(Key{Level: 0, Label: l0}, sig0)
	a.cachedAt = -1
	a.cachedBase = nil
	a.cachedOK = false
}

// Level returns the agent's current view level (number of refinement steps
// completed).
func (a *Agent) Level() int { return len(a.hist) - 1 }

// Epoch returns the agent's current reset epoch.
func (a *Agent) Epoch() int64 { return a.epoch }

// TableSize returns the number of known (level, label) signatures.
func (a *Agent) TableSize() int { return a.table.Len() }

// Send implements the symmetric-communications sending function: the
// message depends only on the local state.
func (a *Agent) Send() model.Message { return a.buildMsg(0) }

// SendOutdegree implements the outdegree-aware sending function, recording
// the learned outdegree.
func (a *Agent) SendOutdegree(outdeg int) model.Message {
	a.observeOutdegree(outdeg)
	return a.buildMsg(0)
}

// observeOutdegree records the current outdegree. The §4 algorithms assume
// a static network, where outdegrees are constant; a change (an
// asynchronous start joining the network, §2.2) invalidates every recorded
// signature, so it schedules a reset wave.
func (a *Agent) observeOutdegree(outdeg int) {
	if a.outdeg != -1 && a.outdeg != outdeg {
		a.degChanged = true
	}
	a.outdeg = outdeg
}

// SendPorts implements the output-port-aware sending function: the same
// history and table on every port, each copy tagged with its port so that
// receivers see the edge coloring of G_op.
func (a *Agent) SendPorts(outdeg int) []model.Message {
	a.observeOutdegree(outdeg)
	out := make([]model.Message, outdeg)
	for p := 0; p < outdeg; p++ {
		out[p] = a.buildMsg(p + 1)
	}
	return out
}

// buildMsg assembles the round's message with zero-copy snapshots: the
// history and table are append-only, entries are immutable, and receivers
// only read the prefix captured here, so sharing the backing arrays across
// agents (and engine goroutines) is safe.
func (a *Agent) buildMsg(port int) *Msg {
	return &Msg{
		Epoch:   a.epoch,
		Hist:    a.hist[:len(a.hist):len(a.hist)],
		Port:    port,
		Entries: a.table.Snapshot(),
	}
}

// Receive merges incoming knowledge and, when possible, performs one
// refinement step.
func (a *Agent) Receive(msgs []model.Message) {
	a.round++
	if a.lift == model.LiftSymmetric {
		// Static symmetric network: outdegree = indegree, learned at the
		// end of the first receive phase (§2.2).
		a.observeOutdegree(len(msgs))
	}
	if a.degChanged {
		// Outdegree changed: signatures recorded so far mixed stale
		// degrees (asynchronous starts). Restart the refinement with a
		// reset wave; once degrees are stable this happens finitely often.
		a.degChanged = false
		a.reset(a.epoch + 1)
		return
	}
	if a.round%auditPeriod == 0 && !a.selfValid() {
		a.reset(a.epoch + 1)
		return
	}
	// Epoch resolution: adopt the highest epoch heard; a strictly higher
	// epoch is a reset wave and wipes local state.
	incoming := make([]*Msg, 0, len(msgs))
	maxEpoch := a.epoch
	for _, raw := range msgs {
		m, ok := raw.(*Msg)
		if !ok {
			continue
		}
		incoming = append(incoming, m)
		if m.Epoch > maxEpoch {
			maxEpoch = m.Epoch
		}
	}
	if maxEpoch > a.epoch {
		a.reset(maxEpoch)
		// Fall through: same-epoch messages of this round are still
		// usable; they are exactly the wave-front neighbours.
	}
	valid := incoming[:0]
	minHist := -1
	complete := true // every in-message valid and on the current epoch
	for _, m := range incoming {
		if m.Epoch != a.epoch || !a.mergeMsg(m) {
			complete = false
			continue
		}
		if minHist == -1 || len(m.Hist) < minHist {
			minHist = len(m.Hist)
		}
		valid = append(valid, m)
	}
	if !complete || minHist == -1 {
		// A stale or invalid in-neighbour blocks refinement this round —
		// the refinement step needs the full in-multiset.
		return
	}
	if a.suppressRefine {
		return
	}
	// One refinement step: compute the level-L label, L = current level+1,
	// provided every in-neighbour (self included, via the self-loop) has
	// reached level L-1.
	L := len(a.hist)
	if L > minHist {
		return
	}
	refs := make([]refObs, 0, len(valid))
	for _, m := range valid {
		refs = append(refs, refObs{label: m.Hist[L-1], port: m.Port})
	}
	sig := Sig{Value: a.valLabel, Out: a.outdeg, Prev: a.hist[L-1], In: groupRefs(refs)}
	label := sig.Label()
	a.hist = append(a.hist, label)
	a.table.add(Key{Level: L, Label: label}, sig)
}

// mergeMsg merges a message's new entries into the table, validating each
// on first sight (entries are self-certifying: label = hash(sig)). It then
// checks the advertised history chains through the merged table. A false
// return marks the sender as suspect for this round; entries that did
// validate are kept — being self-certified, they are knowledge regardless
// of the messenger.
func (a *Agent) mergeMsg(m *Msg) bool {
	if len(m.Hist) == 0 {
		return false
	}
	ok := true
	for _, e := range m.Entries {
		if a.table.Has(e.Key) {
			continue // validated when first learned
		}
		if e.Key.Level < 0 || e.Sig.Label() != e.Key.Label {
			ok = false
			continue
		}
		a.table.add(e.Key, e.Sig)
	}
	if !ok {
		return false
	}
	for l, lab := range m.Hist {
		s, found := a.table.Get(Key{Level: l, Label: lab})
		if !found {
			return false
		}
		if l > 0 && s.Prev != m.Hist[l-1] {
			return false
		}
	}
	return true
}

// selfValid re-checks the agent's own state certification, catching state
// corruption between rounds (run every auditPeriod rounds).
func (a *Agent) selfValid() bool {
	if len(a.hist) == 0 || !a.table.validate() {
		return false
	}
	for l, lab := range a.hist {
		s, ok := a.table.Get(Key{Level: l, Label: lab})
		if !ok {
			return false
		}
		if l > 0 && s.Prev != a.hist[l-1] {
			return false
		}
	}
	return true
}

// Output returns the agent's candidate base, or nil while none is
// extractable. Algorithms building on minbase (package freqcalc) wrap this
// with the function evaluation of §4.2.
func (a *Agent) Output() model.Value {
	base, ok := a.CandidateBase()
	if !ok {
		return nil
	}
	return base
}

// CandidateBase extracts the candidate minimum base from the current table
// (see candidate.go); ok is false while the table has no stable stretch.
// From round n + D (plus any reset or late-start delay) the candidate is
// the true minimum base of the valued network graph.
func (a *Agent) CandidateBase() (*Base, bool) {
	if a.cachedAt == a.table.Len() {
		return a.cachedBase, a.cachedOK
	}
	a.cachedAt = a.table.Len()
	mid, ok := a.table.candidateLevel()
	if !ok {
		a.cachedBase, a.cachedOK = nil, false
		return nil, false
	}
	if shape := a.table.shape(mid); !a.cachedOK || shape != a.cachedShape {
		a.cachedShape = shape
		a.cachedBase, a.cachedOK = buildBase(a.table, mid)
	}
	return a.cachedBase, a.cachedOK
}

// Corrupt scrambles the agent's volatile state: the history chain and a
// table entry are overwritten with junk derived from the seed. A later
// audit (or a neighbour's message validation) detects the broken
// certification and launches a reset wave.
func (a *Agent) Corrupt(junk int64) {
	var garbage Label // prints as the 32 hex digits of the scrambled junk
	binary.BigEndian.PutUint64(garbage[8:], uint64(junk)*0x9e3779b1)
	if len(a.hist) > 0 {
		a.hist[len(a.hist)-1] = garbage
	}
	a.table.add(Key{Level: int(uint64(junk) % 7), Label: garbage}, Sig{Value: garbage.String(), Out: int(junk % 5)})
	a.cachedAt = -1
}
