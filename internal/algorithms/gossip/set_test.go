package gossip

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// randomSet draws a set over a small sorted universe whose zero gets a
// random sign, so that pairs of sets overlap, nest, and disagree on ±0.
func randomSet(rng *rand.Rand) set {
	universe := []float64{-7, -2.5, -1, 0, 0.25, 1, 3, 8, 1e9}
	var s set
	for _, v := range universe {
		if rng.Intn(2) == 0 {
			continue
		}
		if v == 0 && rng.Intn(2) == 0 {
			v = math.Copysign(0, -1)
		}
		s = append(s, v)
	}
	return s
}

// mapUnion is the reference: the seen-set as a map keyed by float64, b
// inserted after a, returned as sorted keys.
func mapUnion(a, b set) set {
	m := map[float64]bool{}
	for _, v := range a {
		m[v] = true
	}
	for _, v := range b {
		m[v] = true
	}
	out := make(set, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

func sameBits(a, b set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestUnionMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5000; trial++ {
		a, b := randomSet(rng), randomSet(rng)
		switch trial % 4 {
		case 1: // b ⊆ a
			b = mapUnion(b, a)
			a, b = b, a
		case 2: // a ⊆ b
			b = mapUnion(a, b)
		case 3: // disjoint
			b = nil
			for _, v := range randomSet(rng) {
				if !contains(a, v) {
					b = append(b, v)
				}
			}
		}
		aCopy, bCopy := append(set(nil), a...), append(set(nil), b...)
		got, want := union(a, b), mapUnion(a, b)
		if !sameBits(got, want) {
			t.Fatalf("union(%v, %v) = %v, map reference %v", a, b, got, want)
		}
		if !sameBits(a, aCopy) || !sameBits(b, bCopy) {
			t.Fatalf("union wrote to an argument: %v %v, were %v %v", a, b, aCopy, bCopy)
		}
		switch {
		case sameBits(want, a):
			if len(a) > 0 && !same(got, a) {
				t.Fatalf("union(%v, %v): b adds nothing, want a itself back", a, b)
			}
		case sameBits(want, b):
			if !same(got, b) {
				t.Fatalf("union(%v, %v): b covers a, want b itself back", a, b)
			}
		default:
			if len(got) > 0 && (len(a) > 0 && &got[0] == &a[0] || len(b) > 0 && &got[0] == &b[0]) {
				t.Fatalf("union(%v, %v) = %v aliases an argument", a, b, got)
			}
		}
	}
}

func contains(s set, v float64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestForeignSliceNormalized(t *testing.T) {
	factory, err := NewFactory(funcs.SupportSize())
	if err != nil {
		t.Fatal(err)
	}
	a := factory(model.Input{Value: 5}).(*Agent)
	foreign := []float64{9, 1, 9, 5, 1}
	a.Receive([]model.Message{foreign})
	if want := (set{1, 5, 9}); !sameBits(a.seen, want) {
		t.Fatalf("seen %v, want %v", a.seen, want)
	}
	if got := a.Output().(float64); got != 3 {
		t.Fatalf("support size %v, want 3", got)
	}
	foreign[0] = 100 // the sender reuses its buffer
	if want := (set{1, 5, 9}); !sameBits(a.seen, want) {
		t.Fatalf("a foreign buffer write reached the seen-set: %v", a.seen)
	}
}

// spy records every message its gossip agent sends, with a deep copy
// taken at send time.
type spy struct {
	*Agent
	sent  []model.Message
	snaps []set
}

func (s *spy) Send() model.Message {
	m := s.Agent.Send()
	s.sent = append(s.sent, m)
	s.snaps = append(s.snaps, append(set(nil), m.(set)...))
	return m
}

// TestSentSetsNeverMutated keeps every message of the first rounds and
// requires each to still equal its send-time snapshot: sets are shared
// across agents, so an in-place append would corrupt a neighbour's view
// (and, on the sharded engine under -race, race with its reader).
func TestSentSetsNeverMutated(t *testing.T) {
	const n, rounds = 24, 12
	g := graph.RandomStronglyConnected(n, 30, rand.New(rand.NewSource(5)))
	factory, err := NewFactory(funcs.Max())
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]model.Input, n)
	for i := range inputs {
		inputs[i] = model.Input{Value: float64(i%7) * 300} // junk lands mid-set
	}
	for _, rn := range []struct {
		name   string
		shards int
	}{{"seq", 0}, {"shard", 3}} {
		t.Run(rn.name, func(t *testing.T) {
			var spies []*spy
			spyFactory := func(in model.Input) model.Agent {
				s := &spy{Agent: factory(in).(*Agent)}
				spies = append(spies, s)
				return s
			}
			r, err := engine.NewRunner(engine.Config{
				Schedule: dynamic.NewStatic(g),
				Kind:     model.SimpleBroadcast,
				Inputs:   inputs,
				Factory:  spyFactory,
				Seed:     9,
			}, rn.name, rn.shards)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for round := 1; round <= rounds; round++ {
				if err := r.Step(); err != nil {
					t.Fatal(err)
				}
				if round == rounds/2 {
					r.Corrupt(int64(round))
				}
			}
			for i, s := range spies {
				if len(s.sent) != rounds {
					t.Fatalf("agent %d sent %d messages in %d rounds", i, len(s.sent), rounds)
				}
				for k, m := range s.sent {
					if !reflect.DeepEqual(m, s.snaps[k]) {
						t.Fatalf("agent %d round %d: sent %v, now %v", i, k+1, s.snaps[k], m)
					}
				}
			}
			for i, o := range r.Outputs() {
				if o.(float64) < 1800 {
					t.Fatalf("agent %d output %v, want the max input or a junk value above it", i, o)
				}
			}
		})
	}
}

func TestCorruptInjectsAndInvalidatesOutput(t *testing.T) {
	factory, err := NewFactory(funcs.Max())
	if err != nil {
		t.Fatal(err)
	}
	a := factory(model.Input{Value: 2}).(*Agent)
	a.Receive([]model.Message{set{1, 3}})
	if got := a.Output().(float64); got != 3 {
		t.Fatalf("output %v, want 3", got)
	}
	before := a.Send()
	a.Corrupt(1999) // injects 999.5
	if got := a.Output().(float64); got != 999.5 {
		t.Fatalf("output after Corrupt %v, want the junk 999.5", got)
	}
	if !reflect.DeepEqual(before, set{1, 2, 3}) {
		t.Fatalf("Corrupt wrote into an already-sent set: %v", before)
	}
	if after := a.Send(); !reflect.DeepEqual(after, set{1, 2, 3, 999.5}) {
		t.Fatalf("message after Corrupt %v, want the junk included", after)
	}
}
