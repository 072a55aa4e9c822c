package minbase

// Table is the append-only signature store gossiped by the agents. Entries
// are immutable and self-certifying (label = hash(sig)), so a message can
// carry a zero-copy snapshot of the entry slice: the owner only ever
// appends, and receivers only read the prefix captured at send time.
//
// The table indexes its entries by level as they arrive and keeps each
// level's conservative flag (see ExtractBase) up to date: an insertion at
// level k marks levels k and k+1 dirty, and only dirty levels are
// re-examined when a flag is read.
type Table struct {
	entries []Entry
	// levels[l] indexes the labels known at level l; nil while none is
	// (Corrupt can insert at any level ≤ 6, leaving holes below).
	levels []*level
	// seen is isConservative's scratch set, kept to reuse its buckets.
	seen map[Label]struct{}
}

// level is the per-level index: label → position in entries, and the
// cached conservative flag of the step from the level below.
type level struct {
	labels       map[Label]int
	conservative bool
	dirty        bool
}

// Entry is one (level, label) → signature record.
type Entry struct {
	Key Key
	Sig Sig
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{seen: make(map[Label]struct{})}
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.entries) }

// find returns the position of k in entries.
func (t *Table) find(k Key) (int, bool) {
	if k.Level < 0 || k.Level >= len(t.levels) || t.levels[k.Level] == nil {
		return 0, false
	}
	i, ok := t.levels[k.Level].labels[k.Label]
	return i, ok
}

// Get looks up a signature.
func (t *Table) Get(k Key) (Sig, bool) {
	i, ok := t.find(k)
	if !ok {
		return Sig{}, false
	}
	return t.entries[i].Sig, true
}

// Has reports whether the key is present.
func (t *Table) Has(k Key) bool {
	_, ok := t.find(k)
	return ok
}

// add inserts a (validated) entry at a level ≥ 0; it reports whether the
// entry was new.
func (t *Table) add(k Key, s Sig) bool {
	if t.Has(k) {
		return false
	}
	for len(t.levels) <= k.Level {
		t.levels = append(t.levels, nil)
	}
	lv := t.levels[k.Level]
	if lv == nil {
		lv = &level{labels: make(map[Label]int)}
		t.levels[k.Level] = lv
	}
	lv.labels[k.Label] = len(t.entries)
	lv.dirty = true
	if up := k.Level + 1; up < len(t.levels) && t.levels[up] != nil {
		t.levels[up].dirty = true
	}
	t.entries = append(t.entries, Entry{Key: k, Sig: s})
	return true
}

// Snapshot returns a zero-copy view of the current entries for inclusion
// in a message. The returned slice must be treated as immutable.
func (t *Table) Snapshot() []Entry { return t.entries }

// maxLevel returns the deepest level with an entry slot (-1 when empty).
func (t *Table) maxLevel() int { return len(t.levels) - 1 }

// conservative reports whether level l ≥ 1 is conservative, re-examining
// it only when an insertion at l or l-1 has dirtied it since.
func (t *Table) conservative(l int) bool {
	lv := t.levels[l]
	if lv == nil {
		return false
	}
	if lv.dirty {
		lv.conservative = t.isConservative(lv, t.levels[l-1])
		lv.dirty = false
	}
	return lv.conservative
}

// isConservative checks the bijectivity and closure conditions between two
// consecutive levels: every label at cur has a distinct Prev known at prev,
// every Prev at prev is hit, and every in-reference resolves at prev.
func (t *Table) isConservative(cur, prev *level) bool {
	if prev == nil || len(cur.labels) == 0 || len(cur.labels) != len(prev.labels) {
		return false
	}
	clear(t.seen)
	for _, i := range cur.labels {
		s := t.entries[i].Sig
		if _, ok := prev.labels[s.Prev]; !ok {
			return false
		}
		if _, dup := t.seen[s.Prev]; dup {
			return false // ψ not injective
		}
		t.seen[s.Prev] = struct{}{}
		for _, r := range s.In {
			if _, ok := prev.labels[r.Prev]; !ok {
				return false
			}
		}
	}
	return len(t.seen) == len(prev.labels) // ψ surjective
}

// validate re-checks every entry's certification (label = hash(sig)) and
// its place in the level index; used by the periodic self-audit that
// detects state corruption.
func (t *Table) validate() bool {
	indexed := 0
	for _, lv := range t.levels {
		if lv != nil {
			indexed += len(lv.labels)
		}
	}
	if indexed != len(t.entries) {
		return false
	}
	for i, e := range t.entries {
		if e.Key.Level < 0 || e.Sig.Label() != e.Key.Label {
			return false
		}
		if j, ok := t.find(e.Key); !ok || j != i {
			return false
		}
	}
	return true
}
