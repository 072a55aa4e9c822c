package service

// Retention coverage: a terminal job record keeps only what the API still
// serves (spec, hash, expected value, result) — never the compiled
// network — and batch members with equal input vectors share one.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"
	"unsafe"

	"anonnet/internal/faults"
	"anonnet/internal/job"
)

// faultyGossipSpec compiles to every executable part — inputs, schedule,
// factory and, through its faults block, a fault injector.
func faultyGossipSpec(seed int64) job.Spec {
	return job.Spec{
		Graph:    job.GraphSpec{Builder: "ring", N: 16},
		Kind:     "bc",
		Function: "max",
		Seed:     seed,
		Faults:   &faults.Plan{Drop: 0.1},
	}
}

// assertRetained fails unless job id's record holds the retained copy of
// its compiled job and nothing executable.
func assertRetained(t *testing.T, s *Service, id string) {
	t.Helper()
	s.mu.Lock()
	c := s.jobs[id].compiled
	s.mu.Unlock()
	if c.Inputs != nil || c.Schedule != nil || c.Factory != nil || c.Injector != nil || c.TopoEntry() != nil {
		t.Fatalf("terminal job %s retains executable state: inputs=%t schedule=%t factory=%t injector=%t topo=%t",
			id, c.Inputs != nil, c.Schedule != nil, c.Factory != nil, c.Injector != nil, c.TopoEntry() != nil)
	}
	if c.Hash == "" || c.N == 0 || c.Func.Eval == nil {
		t.Fatalf("terminal job %s lost its retained fields: %+v", id, c)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTerminalEntriesRetainOnlyServedState(t *testing.T) {
	spec := faultyGossipSpec(7)
	ref, err := job.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Injector == nil {
		t.Fatal("reference spec compiled without a fault injector")
	}
	refRes, err := job.Run(context.Background(), ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantSpec, wantRes := mustJSON(t, ref.Spec), mustJSON(t, refRes)

	g := newGateRunner()
	s := New(Config{Workers: 1, Runner: g.run})
	defer s.Close()
	lead, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, lead.ID, StateRunning)
	fol, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fol.DedupOf != lead.ID {
		t.Fatalf("second submission DedupOf = %q, want leader %s", fol.DedupOf, lead.ID)
	}
	g.release(1)
	waitTerminal(t, s, lead.ID)
	waitTerminal(t, s, fol.ID)
	hit, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("third submission was not a cache hit")
	}

	for _, id := range []string{lead.ID, fol.ID, hit.ID} {
		assertRetained(t, s, id)
		j, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateDone {
			t.Fatalf("job %s state %q, want done", id, j.State)
		}
		if got := mustJSON(t, j.Spec); !bytes.Equal(got, wantSpec) {
			t.Fatalf("job %s spec JSON\n%s\nwant\n%s", id, got, wantSpec)
		}
		if got := mustJSON(t, j.Result); !bytes.Equal(got, wantRes) {
			t.Fatalf("job %s result JSON\n%s\nwant\n%s", id, got, wantRes)
		}
	}
}

func TestCanceledEntriesRetainOnlyServedState(t *testing.T) {
	g := newGateRunner()
	s := New(Config{Workers: 1, Runner: g.run})
	defer s.Close()
	blocker, err := s.Submit(faultyGossipSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateRunning)
	queued, err := s.Submit(faultyGossipSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	fol, err := s.Submit(faultyGossipSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{queued.ID, fol.ID} {
		if _, err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	g.release(1)
	waitTerminal(t, s, blocker.ID)
	// The worker pops the canceled job and retires it on the skip path.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		skipped := s.jobs[queued.ID].compiled.Inputs == nil
		s.mu.Unlock()
		if skipped || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, id := range []string{blocker.ID, queued.ID, fol.ID} {
		assertRetained(t, s, id)
	}
}

func TestBatchMembersShareValues(t *testing.T) {
	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = float64(i % 4)
	}
	negZero := append([]float64(nil), vals...)
	negZero[0] = math.Copysign(0, -1) // == 0, but a different canonical spec
	specs := make([]job.Spec, 0, 6)
	for seed := int64(1); seed <= 4; seed++ {
		sp := faultyGossipSpec(seed)
		sp.Values = append([]float64(nil), vals...)
		specs = append(specs, sp)
	}
	odd := faultyGossipSpec(5)
	odd.Values = negZero
	specs = append(specs, odd)

	s := New(Config{Workers: 1})
	defer s.Close()
	b, err := s.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range b.Jobs {
		waitTerminal(t, s, j.ID)
		assertRetained(t, s, j.ID)
	}
	s.mu.Lock()
	data := make([]*float64, len(b.Jobs))
	for i, j := range b.Jobs {
		data[i] = unsafe.SliceData(s.jobs[j.ID].compiled.Spec.Values)
	}
	s.mu.Unlock()
	for i := 1; i < 4; i++ {
		if data[i] != data[0] {
			t.Fatalf("member %d holds its own values vector; want the batch's shared one", i)
		}
	}
	if data[4] == data[0] {
		t.Fatal("a member whose values differ in the sign of a zero shares the others' vector")
	}
	for i, j := range b.Jobs {
		got, err := s.Get(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := specs[i].Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if g, w := mustJSON(t, got.Spec), mustJSON(t, ref); !bytes.Equal(g, w) {
			t.Fatalf("member %d spec JSON\n%s\nwant\n%s", i, g, w)
		}
	}
}

func TestBackfillOfRetainedEntryWritesSpec(t *testing.T) {
	dir := t.TempDir()
	fs := newSwitchFS()
	st := openSwitchStore(t, dir, fs, false)
	s := New(Config{
		Workers:          1,
		Store:            st,
		BreakerThreshold: 1,
		BreakerCooldown:  30 * time.Millisecond,
	})
	fs.failWrites.Store(true)
	darkSpec := faultyGossipSpec(11)
	dark, err := s.Submit(darkSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, dark.ID)
	assertRetained(t, s, dark.ID)

	fs.failWrites.Store(false)
	time.Sleep(50 * time.Millisecond)
	probe, err := s.Submit(faultyGossipSpec(12))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, probe.ID)
	if got := s.Stats().Backfilled; got < 1 {
		t.Fatalf("backfilled %d jobs, want the dark one", got)
	}
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	v, ok := st2.Job(dark.ID)
	if !ok {
		t.Fatalf("dark job %s missing from the log after backfill", dark.ID)
	}
	ref, err := darkSpec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if want := mustJSON(t, ref); !bytes.Equal(v.Spec, want) {
		t.Fatalf("backfilled spec\n%s\nwant\n%s", v.Spec, want)
	}
	if v.State != "done" || len(v.Result) == 0 {
		t.Fatalf("backfilled record state=%q result=%d bytes, want done with a result", v.State, len(v.Result))
	}
}
