package minbase

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/fibration"
	"anonnet/internal/graph"
	"anonnet/internal/model"
	"anonnet/internal/multiset"
	"anonnet/internal/testutil"
)

func TestEncodeDecodeInput(t *testing.T) {
	cases := []model.Input{
		{Value: 0}, {Value: 1.5}, {Value: -3.25, Leader: true},
		{Value: 0.1}, {Value: 1e300}, {Value: -0},
	}
	for _, in := range cases {
		got, err := DecodeInput(EncodeInput(in))
		if err != nil {
			t.Fatalf("decode(%v): %v", in, err)
		}
		if got != in {
			t.Fatalf("round trip %v → %v", in, got)
		}
	}
	if _, err := DecodeInput("garbage"); err == nil {
		t.Fatal("DecodeInput accepted garbage")
	}
}

func TestLabelDeterministicAndDiscriminating(t *testing.T) {
	p, a := labelFrom("p"), labelFrom("a")
	s1 := Sig{Value: "v", Out: 2, Prev: p, In: []InRef{{Prev: a, Port: 0, Count: 2}}}
	s2 := Sig{Value: "v", Out: 2, Prev: p, In: []InRef{{Prev: a, Port: 0, Count: 2}}}
	if s1.Label() != s2.Label() {
		t.Fatal("equal signatures got different labels")
	}
	s3 := s1
	s3.Out = 3
	if s1.Label() == s3.Label() {
		t.Fatal("different signatures got equal labels")
	}
	s4 := Sig{Value: "v", Out: 2, Prev: p, In: []InRef{{Prev: a, Port: 0, Count: 1}, {Prev: a, Port: 1, Count: 1}}}
	if s1.Label() == s4.Label() {
		t.Fatal("different in-structures got equal labels")
	}
}

func TestNewAgentRejectsBroadcast(t *testing.T) {
	if _, err := NewAgent(model.SimpleBroadcast, model.Input{}); err == nil {
		t.Fatal("minbase should reject the simple-broadcast model")
	}
	if _, err := NewFactory(model.SimpleBroadcast); err == nil {
		t.Fatal("NewFactory should reject the simple-broadcast model")
	}
}

// trueMultiset returns the input-value multiset of the network.
func trueMultiset(inputs []model.Input) *multiset.Multiset[float64] {
	m := multiset.New[float64]()
	for _, in := range inputs {
		m.Add(in.Value)
	}
	return m
}

// centralizedBaseSize computes the ground-truth minimum base size via the
// fibration package, with the valuation appropriate to the model.
func centralizedBaseSize(t *testing.T, g *graph.Graph, kind model.Kind, inputs []model.Input) int {
	t.Helper()
	if kind == model.OutputPortAware && !g.PortsValid() {
		g = g.AssignPorts()
	}
	labels := make([]string, g.N())
	for v := range labels {
		labels[v] = EncodeInput(inputs[v]) + "|od=" + strconv.Itoa(g.OutDegree(v))
	}
	fib, err := fibration.MinimumBase(g, labels)
	if err != nil {
		t.Fatalf("centralized minimum base: %v", err)
	}
	return fib.Base.N()
}

// minbaseWorkloads enumerates the static networks used across the minbase
// and freqcalc tests. All are strongly connected with self-loops.
type workload struct {
	name   string
	g      *graph.Graph
	inputs []model.Input
	sym    bool // usable under the symmetric model
}

func minbaseWorkloads() []workload {
	rng := rand.New(rand.NewSource(17))
	return []workload{
		{"uniform-ring", graph.Ring(5), testutil.Inputs(2, 2, 2, 2, 2), false},
		{"alt-ring", graph.Ring(6), testutil.Inputs(1, 2, 1, 2, 1, 2), false},
		{"bidi-ring", graph.BidirectionalRing(6), testutil.Inputs(1, 2, 1, 2, 1, 2), true},
		{"star", graph.Star(5), testutil.Inputs(9, 4, 4, 4, 4), true},
		{"path", graph.Path(4), testutil.Inputs(1, 2, 2, 1), true},
		{"hypercube", graph.Hypercube(3), testutil.Inputs(1, 1, 1, 1, 1, 1, 1, 1), true},
		{"torus", graph.Torus(2, 3), testutil.Inputs(3, 3, 3, 3, 3, 3), true},
		{"random-digraph", graph.RandomStronglyConnected(7, 6, rng), testutil.Inputs(1, 5, 5, 2, 1, 5, 2), false},
		{"random-sym", graph.RandomSymmetricConnected(7, 4, rng), testutil.Inputs(4, 4, 1, 1, 4, 4, 1), true},
		{"distinct-values", graph.Ring(4), testutil.Inputs(1, 2, 3, 4), false},
	}
}

func roundsFor(g *graph.Graph) int {
	return 3*g.N() + 4*g.Diameter() + 12
}

func TestDistributedBaseMatchesCentralized(t *testing.T) {
	for _, w := range minbaseWorkloads() {
		for _, kind := range testutil.CapableKinds() {
			if kind == model.Symmetric && !w.sym {
				continue
			}
			factory, err := NewFactory(kind)
			if err != nil {
				t.Fatal(err)
			}
			e := testutil.RunStatic(t, w.g, kind, w.inputs, factory, roundsFor(w.g), 1)
			wantSize := centralizedBaseSize(t, w.g, kind, w.inputs)
			for i := 0; i < e.N(); i++ {
				a := e.Agent(i).(*Agent)
				base, ok := a.CandidateBase()
				if !ok {
					t.Fatalf("%s/%v: agent %d has no candidate after %d rounds", w.name, kind, i, e.Round())
				}
				if base.N() != wantSize {
					t.Errorf("%s/%v: agent %d base has %d vertices, want %d (%v)",
						w.name, kind, i, base.N(), wantSize, base)
					break
				}
			}
		}
	}
}

func TestCandidateStabilizesWithinBound(t *testing.T) {
	// The §4.2 guarantee is stabilization by round n + D (for the
	// infinite-state algorithm); our extractor adds a safety margin, so we
	// check stabilization within n + 3D + 4 and report the measured round
	// in EXPERIMENTS.md via the figures harness.
	for _, w := range minbaseWorkloads() {
		kind := model.OutdegreeAware
		factory, err := NewFactory(kind)
		if err != nil {
			t.Fatal(err)
		}
		n, d := w.g.N(), w.g.Diameter()
		bound := n + 3*d + 4
		e := testutil.RunStatic(t, w.g, kind, w.inputs, factory, bound, 2)
		snapshot := make([]*Base, e.N())
		for i := 0; i < e.N(); i++ {
			base, ok := e.Agent(i).(*Agent).CandidateBase()
			if !ok {
				t.Fatalf("%s: agent %d has no candidate at round %d", w.name, i, bound)
			}
			snapshot[i] = base
		}
		// Run on: the candidate must not change (up to isomorphism — bases
		// are unique only up to isomorphism) for another 2(n+d) rounds.
		for r := 0; r < 2*(n+d); r++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < e.N(); i++ {
			base, _ := e.Agent(i).(*Agent).CandidateBase()
			if !base.Isomorphic(snapshot[i]) {
				t.Errorf("%s: agent %d candidate changed after round %d:\n then: %s\n now:  %s",
					w.name, i, bound, snapshot[i], base)
			}
		}
	}
}

func TestAgentsAgreeOnBase(t *testing.T) {
	for _, w := range minbaseWorkloads() {
		factory, err := NewFactory(model.OutdegreeAware)
		if err != nil {
			t.Fatal(err)
		}
		e := testutil.RunStatic(t, w.g, model.OutdegreeAware, w.inputs, factory, roundsFor(w.g), 3)
		var first *Base
		for i := 0; i < e.N(); i++ {
			base, ok := e.Agent(i).(*Agent).CandidateBase()
			if !ok {
				t.Fatalf("%s: agent %d has no candidate", w.name, i)
			}
			if i == 0 {
				first = base
			} else if !base.Isomorphic(first) {
				t.Errorf("%s: agents 0 and %d disagree:\n%s\n%s", w.name, i, first, base)
			}
		}
	}
}

func TestAsyncStartsTolerated(t *testing.T) {
	g := graph.Ring(6)
	inputs := testutil.Inputs(1, 2, 1, 2, 1, 2)
	factory, err := NewFactory(model.OutdegreeAware)
	if err != nil {
		t.Fatal(err)
	}
	starts := []int{1, 4, 2, 7, 1, 3}
	e, err := engine.New(engine.Config{
		Schedule: dynamic.NewStatic(g),
		Kind:     model.OutdegreeAware,
		Inputs:   inputs,
		Factory:  factory,
		Starts:   starts,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 60; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < e.N(); i++ {
		base, ok := e.Agent(i).(*Agent).CandidateBase()
		if !ok {
			t.Fatalf("agent %d has no candidate", i)
		}
		if base.N() != 2 {
			t.Errorf("agent %d base has %d vertices, want 2 (%v)", i, base.N(), base)
		}
	}
}

func TestCorruptionRecovery(t *testing.T) {
	g := graph.Ring(6)
	inputs := testutil.Inputs(1, 2, 1, 2, 1, 2)
	factory, err := NewFactory(model.OutdegreeAware)
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunStatic(t, g, model.OutdegreeAware, inputs, factory, 30, 4)
	// Scramble two agents mid-run.
	e.Agent(1).(model.Corruptible).Corrupt(12345)
	e.Agent(4).(model.Corruptible).Corrupt(98765)
	// The reset wave floods and recomputation finishes within
	// ~2(n + D) extra rounds.
	for r := 0; r < 80; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < e.N(); i++ {
		a := e.Agent(i).(*Agent)
		if a.Epoch() == 0 {
			t.Errorf("agent %d never adopted the reset epoch", i)
		}
		base, ok := a.CandidateBase()
		if !ok {
			t.Fatalf("agent %d has no candidate after recovery", i)
		}
		if base.N() != 2 {
			t.Errorf("agent %d base has %d vertices after recovery, want 2 (%v)", i, base.N(), base)
		}
	}
}

func TestMergeMsgRejectsForgery(t *testing.T) {
	a, err := NewAgent(model.OutdegreeAware, model.Input{Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	sig := Sig{Value: "v", Out: 2}
	good := &Msg{
		Epoch:   0,
		Hist:    []Label{sig.Label()},
		Entries: []Entry{{Key: Key{Level: 0, Label: sig.Label()}, Sig: sig}},
	}
	if !a.mergeMsg(good) {
		t.Fatal("valid message rejected")
	}
	bad := &Msg{
		Epoch:   0,
		Hist:    []Label{labelFrom("deadbeef")},
		Entries: []Entry{{Key: Key{Level: 0, Label: labelFrom("deadbeef")}, Sig: sig}},
	}
	if a.mergeMsg(bad) {
		t.Fatal("forged label accepted")
	}
	if a.table.Has(Key{Level: 0, Label: labelFrom("deadbeef")}) {
		t.Fatal("forged entry entered the table")
	}
	missing := &Msg{Epoch: 0, Hist: []Label{labelFrom("nope")}}
	if a.mergeMsg(missing) {
		t.Fatal("unbacked history accepted")
	}
}

func TestExtractBaseEmptyTable(t *testing.T) {
	if _, ok := ExtractBase(nil); ok {
		t.Fatal("ExtractBase(nil) returned a base")
	}
}

func TestTableBasics(t *testing.T) {
	tb := NewTable()
	sig := Sig{Value: "v", Out: 1}
	k := Key{Level: 0, Label: sig.Label()}
	if !tb.add(k, sig) {
		t.Fatal("add failed")
	}
	if tb.add(k, sig) {
		t.Fatal("duplicate add succeeded")
	}
	if got, ok := tb.Get(k); !ok || got.Value != sig.Value || got.Out != sig.Out {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if !tb.validate() {
		t.Fatal("fresh table invalid")
	}
	// In-place corruption must be caught by validate.
	tb.entries[0].Key.Label = labelFrom("junk")
	if tb.validate() {
		t.Fatal("corrupted table validated")
	}
}

// TestTableFlagsTrackInsertions checks the incremental conservative
// flags: replaying a real agent's table in shuffled orders, with every
// flag read after each insertion, ends with the flags and candidate level
// of the same entries read once. A junk entry two levels above the top
// leaves a hole, as Corrupt can.
func TestTableFlagsTrackInsertions(t *testing.T) {
	factory, err := NewFactory(model.OutdegreeAware)
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunStatic(t, graph.Ring(6), model.OutdegreeAware, testutil.Inputs(1, 2, 1, 2, 1, 2), factory, 30, 1)
	src := e.Agent(0).(*Agent).table
	entries := append([]Entry(nil), src.entries...)
	junk := Sig{Value: "junk", Out: 1}
	entries = append(entries, Entry{Key: Key{Level: src.maxLevel() + 2, Label: junk.Label()}, Sig: junk})
	fresh := NewTable()
	for _, en := range entries {
		fresh.add(en.Key, en.Sig)
	}
	wantMid, wantOK := fresh.candidateLevel()
	if !wantOK {
		t.Fatal("replayed table has no candidate level")
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		inc := NewTable()
		for _, i := range rng.Perm(len(entries)) {
			inc.add(entries[i].Key, entries[i].Sig)
			for l := 1; l <= inc.maxLevel(); l++ {
				inc.conservative(l)
			}
		}
		for l := 1; l <= fresh.maxLevel(); l++ {
			if inc.conservative(l) != fresh.conservative(l) {
				t.Fatalf("trial %d: level %d conservative %v after incremental inserts, %v read once",
					trial, l, inc.conservative(l), fresh.conservative(l))
			}
		}
		if mid, ok := inc.candidateLevel(); mid != wantMid || ok != wantOK {
			t.Fatalf("trial %d: candidate level %d, %v; want %d, %v", trial, mid, ok, wantMid, wantOK)
		}
	}
}

func TestDistributedMatchesReferenceRandomized(t *testing.T) {
	// Randomized sweep: on random strongly connected digraphs with random
	// small-alphabet valuations, every agent's candidate is isomorphic to
	// the centralized reference base.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(6)
		g := graph.RandomStronglyConnected(n, rng.Intn(2*n), rng)
		inputs := make([]model.Input, n)
		for i := range inputs {
			inputs[i] = model.Input{Value: float64(1 + rng.Intn(3))}
		}
		want, _, err := BaseOfGraph(g, inputs)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		factory, err := NewFactory(model.OutdegreeAware)
		if err != nil {
			t.Fatal(err)
		}
		e := testutil.RunStatic(t, g, model.OutdegreeAware, inputs, factory, roundsFor(g), int64(trial))
		for i := 0; i < e.N(); i++ {
			got, ok := e.Agent(i).(*Agent).CandidateBase()
			if !ok {
				t.Fatalf("trial %d: agent %d has no candidate", trial, i)
			}
			if !got.Isomorphic(want) {
				t.Fatalf("trial %d: agent %d base %v not isomorphic to reference %v\ngraph: %v",
					trial, i, got, want, g)
			}
		}
	}
}

func TestReferenceBaseCardinalityIdentity(t *testing.T) {
	// eq. (1) holds on the reference base with the true cardinalities:
	// b_i·z_i = Σ_j d_{i,j}·z_j.
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(7)
		g := graph.RandomStronglyConnected(n, rng.Intn(2*n), rng)
		inputs := make([]model.Input, n)
		for i := range inputs {
			inputs[i] = model.Input{Value: float64(rng.Intn(2))}
		}
		b, fib, err := BaseOfGraph(g, inputs)
		if err != nil {
			t.Fatal(err)
		}
		z := fib.FibreCardinalities()
		for i := 0; i < b.N(); i++ {
			lhs := b.Out[i] * z[i]
			rhs := 0
			for j := 0; j < b.N(); j++ {
				rhs += b.D[i][j] * z[j]
			}
			if lhs != rhs {
				t.Fatalf("trial %d: eq. (1) fails at fibre %d: %d ≠ %d (base %v, z %v)",
					trial, i, lhs, rhs, b, z)
			}
		}
	}
}

func TestBoundedAgentFreezesWithCorrectBase(t *testing.T) {
	// Finite-state variant: with a bound N known, agents freeze after a
	// 2N+2 stable stretch, state stops growing, and the frozen candidate
	// is the true base.
	g := graph.Ring(6)
	inputs := testutil.Inputs(1, 2, 1, 2, 1, 2)
	boundN := 8
	factory, err := NewBoundedFactory(model.OutdegreeAware, boundN)
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunStatic(t, g, model.OutdegreeAware, inputs, factory, 4*(2*boundN+2)+40, 9)
	sizes := make([]int, e.N())
	levels := make([]int, e.N())
	for i := 0; i < e.N(); i++ {
		a := e.Agent(i).(*BoundedAgent)
		if !a.Frozen() {
			t.Fatalf("agent %d not frozen after the budget", i)
		}
		base, ok := a.CandidateBase()
		if !ok || base.N() != 2 {
			t.Fatalf("agent %d frozen candidate wrong: %v", i, base)
		}
		sizes[i] = a.TableSize()
		levels[i] = a.Level()
	}
	// Run much longer: state must not grow at all.
	for r := 0; r < 200; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < e.N(); i++ {
		a := e.Agent(i).(*BoundedAgent)
		if a.TableSize() != sizes[i] || a.Level() != levels[i] {
			t.Fatalf("agent %d state grew while frozen: table %d→%d, level %d→%d",
				i, sizes[i], a.TableSize(), levels[i], a.Level())
		}
	}
}

func TestBoundedAgentUnfreezesOnCorruption(t *testing.T) {
	g := graph.Ring(5)
	inputs := testutil.Inputs(3, 3, 3, 3, 3)
	factory, err := NewBoundedFactory(model.OutdegreeAware, 6)
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunStatic(t, g, model.OutdegreeAware, inputs, factory, 120, 10)
	if !e.Agent(0).(*BoundedAgent).Frozen() {
		t.Fatal("agent 0 should be frozen before corruption")
	}
	e.Agent(0).(model.Corruptible).Corrupt(777)
	for r := 0; r < 150; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < e.N(); i++ {
		a := e.Agent(i).(*BoundedAgent)
		if a.Epoch() == 0 {
			t.Fatalf("agent %d never reset", i)
		}
		base, ok := a.CandidateBase()
		if !ok || base.N() != 1 {
			t.Fatalf("agent %d post-recovery candidate wrong: %v", i, base)
		}
		if !a.Frozen() {
			t.Fatalf("agent %d should have re-frozen after recovery", i)
		}
	}
}

func TestBoundedFactoryValidation(t *testing.T) {
	if _, err := NewBoundedFactory(model.OutdegreeAware, 0); err == nil {
		t.Fatal("bound 0 accepted")
	}
	if _, err := NewBoundedFactory(model.SimpleBroadcast, 5); err == nil {
		t.Fatal("broadcast model accepted")
	}
}

func TestDistributedMatchesReferencePortsAndSymmetric(t *testing.T) {
	// The op and symmetric models against the centralized reference on
	// random networks (the reference refines with ports when present).
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(5)
		inputs := make([]model.Input, n)
		for i := range inputs {
			inputs[i] = model.Input{Value: float64(1 + rng.Intn(2))}
		}
		// Output ports on a random digraph.
		gp := graph.RandomStronglyConnected(n, rng.Intn(2*n), rng).AssignPorts()
		want, _, err := BaseOfGraph(gp, inputs)
		if err != nil {
			t.Fatal(err)
		}
		factory, err := NewFactory(model.OutputPortAware)
		if err != nil {
			t.Fatal(err)
		}
		e := testutil.RunStatic(t, gp, model.OutputPortAware, inputs, factory, roundsFor(gp), int64(trial))
		for i := 0; i < e.N(); i++ {
			got, ok := e.Agent(i).(*Agent).CandidateBase()
			if !ok || got.N() != want.N() {
				t.Fatalf("trial %d (op): agent %d base %v, reference %v", trial, i, got, want)
			}
		}
		// Symmetric model on a random bidirectional graph.
		gs := graph.RandomSymmetricConnected(n, rng.Intn(n), rng)
		wantS, _, err := BaseOfGraph(gs, inputs)
		if err != nil {
			t.Fatal(err)
		}
		factoryS, err := NewFactory(model.Symmetric)
		if err != nil {
			t.Fatal(err)
		}
		eS := testutil.RunStatic(t, gs, model.Symmetric, inputs, factoryS, roundsFor(gs), int64(trial))
		for i := 0; i < eS.N(); i++ {
			got, ok := eS.Agent(i).(*Agent).CandidateBase()
			if !ok || !got.Isomorphic(wantS) {
				t.Fatalf("trial %d (sym): agent %d base %v, reference %v", trial, i, got, wantS)
			}
		}
	}
}

// hexCanonicalLabel is the label encoding labels had as hex strings: the
// canonical text built in a strings.Builder, hashed by hash/fnv's
// FNV-128a and printed with %x. Sig.Label must reproduce it bit for bit —
// buildBase sorts base vertices by label.
func hexCanonicalLabel(s Sig) string {
	hexOf := func(l Label) string {
		if l == (Label{}) {
			return ""
		}
		return fmt.Sprintf("%x", l[:])
	}
	var b strings.Builder
	b.WriteString("V=" + s.Value + ";O=" + strconv.Itoa(s.Out) + ";P=" + hexOf(s.Prev) + ";I=")
	for _, r := range s.In {
		b.WriteString(hexOf(r.Prev) + "/" + strconv.Itoa(r.Port) + "*" + strconv.Itoa(r.Count) + ",")
	}
	h := fnv.New128a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestLabelIsHexCanonicalFNV128a(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randLabel := func() Label {
		var l Label
		if rng.Intn(4) > 0 {
			rng.Read(l[:])
		}
		return l
	}
	var labels []Label
	var hexes []string
	for trial := 0; trial < 500; trial++ {
		s := Sig{
			Value: EncodeInput(model.Input{Value: rng.NormFloat64(), Leader: rng.Intn(2) == 0}),
			Out:   rng.Intn(40) - 1,
			Prev:  randLabel(),
		}
		for k := rng.Intn(5); k > 0; k-- {
			s.In = append(s.In, InRef{Prev: randLabel(), Port: rng.Intn(4), Count: 1 + rng.Intn(1000)})
		}
		got, want := s.Label(), hexCanonicalLabel(s)
		if got.String() != want {
			t.Fatalf("%+v: label %v, hex-canonical FNV-128a %s", s, got, want)
		}
		labels = append(labels, got)
		hexes = append(hexes, want)
	}
	// Byte order is hex order, so label-sorted bases keep their vertex order.
	slices.SortFunc(labels, compareLabels)
	sort.Strings(hexes)
	for i := range labels {
		if labels[i].String() != hexes[i] {
			t.Fatalf("sorted position %d: label %v, hex %s", i, labels[i], hexes[i])
		}
	}
}
