package engine_test

// Checkpoint/resume equality: a run snapshotted at round K and resumed on
// a fresh runner must continue with the byte-identical trace of the
// uninterrupted run — per engine, with and without fault plans (delayed
// in-flight messages included). This is the durability contract behind
// internal/store: the golden test of the checkpoint subsystem.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"anonnet/internal/engine"
	"anonnet/internal/faults"
	"anonnet/internal/model"
)

// ckptCase names one checkpointable workload × fault plan.
type ckptCase struct {
	name string
	algo string // key into algoCases (must be checkpointable)
	plan *faults.Plan
}

func ckptCases() []ckptCase {
	return []ckptCase{
		{name: "pushsum", algo: "pushsum"},
		{name: "pushsum/faults", algo: "pushsum",
			plan: &faults.Plan{Drop: 0.15, Dup: 0.1, DelayP: 0.25, DelayMax: 4, Stall: 0.1, Crash: 0.05}},
		{name: "metropolis", algo: "metropolis"},
		{name: "metropolis/faults+churn", algo: "metropolis",
			plan: &faults.Plan{Drop: 0.1, DelayP: 0.2, DelayMax: 3, Churn: &faults.ChurnPlan{Drop: 0.3, Window: 2, Guard: faults.GuardRepair}}},
	}
}

// ckptConfig builds the engine.Config of a case, compiling the fault plan
// exactly as the facade does.
func ckptConfig(t *testing.T, cc ckptCase) engine.Config {
	t.Helper()
	const n, seed = 7, 23
	var tc workload
	found := false
	for _, c := range algoCases() {
		if c.name == cc.algo {
			tc, found = c, true
			break
		}
	}
	if !found {
		t.Fatalf("unknown algo case %q", cc.algo)
	}
	cfg := engine.Config{
		Schedule: tc.schedule(n, 11),
		Kind:     tc.kind,
		Inputs:   caseInputs(n),
		Factory:  tc.factory(t, n),
		Seed:     seed,
	}
	if cc.plan != nil {
		inj, err := faults.NewInjector(seed, *cc.plan)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = inj
		sched, err := faults.WrapSchedule(cfg.Schedule, seed, cc.plan.Churn)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Schedule = sched
	}
	return cfg
}

// ckptRunners enumerates the engines: the generic engine on one and on
// three slabs, the retired "conc" name (which legacy specs still spell
// and which runs the one-slab engine), and the vector kernel inline and
// on three workers.
func ckptRunners() []runnerRow {
	return runnersNamed(7, "seq", "conc", "shard3", "vec", "parvec3")
}

func traceLine(r engine.Runner) string {
	return fmt.Sprintf("%d:%v\n", r.Round(), r.Outputs())
}

func hashLines(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprint(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runWithCheckpoint steps r for rounds rounds, snapshotting it at round k,
// and returns the per-round trace lines and the snapshot after an
// Encode/Decode round trip, which exercises the gob codec, in-flight
// delayed messages and all.
func runWithCheckpoint(t *testing.T, r engine.Runner, rounds, k int) ([]string, *engine.Checkpoint) {
	t.Helper()
	var lines []string
	var blob []byte
	for round := 1; round <= rounds; round++ {
		if err := r.Step(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		lines = append(lines, traceLine(r))
		if round == k {
			cp, err := r.(engine.Checkpointer).Snapshot()
			if err != nil {
				t.Fatalf("snapshot at round %d: %v", round, err)
			}
			if blob, err = cp.Encode(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cp, err := engine.DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	return lines, cp
}

// resumedHash restores cp into the fresh runner r, steps it to round
// rounds, and hashes the trace lines before cp spliced with the resumed
// ones.
func resumedHash(t *testing.T, r engine.Runner, cp *engine.Checkpoint, lines []string, rounds int) string {
	t.Helper()
	if err := r.(engine.Checkpointer).Restore(cp); err != nil {
		t.Fatalf("restore %q checkpoint: %v", cp.Engine, err)
	}
	if r.Round() != cp.Round {
		t.Fatalf("restored runner at round %d, want %d", r.Round(), cp.Round)
	}
	spliced := append([]string(nil), lines[:cp.Round]...)
	for round := cp.Round + 1; round <= rounds; round++ {
		if err := r.Step(); err != nil {
			t.Fatalf("resumed round %d: %v", round, err)
		}
		spliced = append(spliced, traceLine(r))
	}
	return hashLines(spliced)
}

// TestCheckpointResumeTraceEquality is the subsystem's golden property:
// for every engine × workload × fault plan, splicing the pre-checkpoint
// trace of run A with the post-resume trace of run B reproduces run A's
// full trace hash byte for byte.
func TestCheckpointResumeTraceEquality(t *testing.T) {
	const rounds, k = 12, 5
	for _, cc := range ckptCases() {
		for _, rn := range ckptRunners() {
			t.Run(cc.name+"/"+rn.name, func(t *testing.T) {
				// Uninterrupted run, snapshotting at round k.
				a, err := rn.mk(ckptConfig(t, cc))
				if errors.Is(err, engine.ErrNotVectorizable) {
					t.Skip("not vectorizable")
				}
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
				if !engine.CanCheckpoint(a) {
					t.Fatalf("%s run of %s reports not checkpointable", rn.name, cc.algo)
				}
				lines, cp := runWithCheckpoint(t, a, rounds, k)

				// Fresh runner, restored from the checkpoint.
				b, err := rn.mk(ckptConfig(t, cc))
				if err != nil {
					t.Fatal(err)
				}
				defer b.Close()
				if got, full := resumedHash(t, b, cp, lines, rounds), hashLines(lines); got != full {
					t.Errorf("spliced trace hash %s, want uninterrupted %s", got, full)
				}
				if !reflect.DeepEqual(a.Outputs(), b.Outputs()) {
					t.Errorf("final outputs diverge:\n a: %v\n b: %v", a.Outputs(), b.Outputs())
				}
				as, bs := a.Stats(), b.Stats()
				if as != bs {
					t.Errorf("final stats diverge: a %+v, b %+v", as, bs)
				}
			})
		}
	}
}

// TestCheckpointGenericCrossResume: the generic runners form one
// checkpoint family (one Engine tag, one pending layout, one draw
// sequence), so a snapshot taken on the sequential engine resumes on the
// sharded one and back, with and without faults, to the uninterrupted
// trace hash.
func TestCheckpointGenericCrossResume(t *testing.T) {
	const rounds, k = 12, 5
	mk := map[string]func(engine.Config) (engine.Runner, error){}
	for _, row := range runnersNamed(7, "seq", "shard3") {
		mk[row.name] = row.mk
	}
	for _, cc := range ckptCases() {
		for _, dir := range []struct{ from, to string }{{"seq", "shard3"}, {"shard3", "seq"}} {
			t.Run(cc.name+"/"+dir.from+"-to-"+dir.to, func(t *testing.T) {
				a, err := mk[dir.from](ckptConfig(t, cc))
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
				lines, cp := runWithCheckpoint(t, a, rounds, k)
				b, err := mk[dir.to](ckptConfig(t, cc))
				if err != nil {
					t.Fatal(err)
				}
				defer b.Close()
				if got, full := resumedHash(t, b, cp, lines, rounds), hashLines(lines); got != full {
					t.Errorf("spliced %s→%s trace hash %s, want %s", dir.from, dir.to, got, full)
				}
			})
		}
	}
}

// TestCheckpointLegacyGenericTags: earlier releases tagged generic
// checkpoints with the runner's own name; such a durable checkpoint must
// still resume after an upgrade rather than fail its job.
func TestCheckpointLegacyGenericTags(t *testing.T) {
	const rounds, k = 12, 5
	cc := ckptCases()[1] // pushsum with faults: delayed messages in flight
	for _, tag := range []string{"concurrent", "sharded"} {
		t.Run(tag, func(t *testing.T) {
			a, err := engine.New(ckptConfig(t, cc))
			if err != nil {
				t.Fatal(err)
			}
			lines, cp := runWithCheckpoint(t, a, rounds, k)
			if len(cp.Delayed) == 0 {
				t.Fatal("checkpoint carries no delayed messages; the case no longer exercises the pending layout")
			}
			cp.Engine = tag
			b, err := engine.New(ckptConfig(t, cc))
			if err != nil {
				t.Fatal(err)
			}
			if got, full := resumedHash(t, b, cp, lines, rounds), hashLines(lines); got != full {
				t.Errorf("spliced trace hash %s, want %s", got, full)
			}
		})
	}
}

// TestCheckpointFamilyRefused: the two families' pending layouts differ
// (Delayed vs VecDelayed), so a vector checkpoint is refused by a generic
// runner and a generic one by the vector kernel.
func TestCheckpointFamilyRefused(t *testing.T) {
	cc := ckptCases()[1]
	snap := func(r engine.Runner, err error) *engine.Checkpoint {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		_, cp := runWithCheckpoint(t, r, 3, 3)
		return cp
	}
	vecCP := snap(engine.NewParallelVec(ckptConfig(t, cc), 1))
	genCP := snap(engine.New(ckptConfig(t, cc)))
	seq, err := engine.New(ckptConfig(t, cc))
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.Restore(vecCP); err == nil {
		t.Error("sequential engine restored a vector checkpoint")
	}
	pv, err := engine.NewParallelVec(ckptConfig(t, cc), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pv.Close()
	if err := pv.Restore(genCP); err == nil {
		t.Error("vector kernel restored a generic checkpoint")
	}
}

// TestCheckpointedHarnessResume drives the checkpointed harness end to
// end: an uninterrupted checkpointed run and a resumed run must agree on
// the full StableResult — Rounds, StabilizedAt, and outputs.
func TestCheckpointedHarnessResume(t *testing.T) {
	const patience, maxRounds, every = 3, 60, 4
	for _, cc := range ckptCases() {
		t.Run(cc.name, func(t *testing.T) {
			var saved []*engine.Checkpoint
			a, err := engine.New(ckptConfig(t, cc))
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			want, err := engine.RunUntilStableCheckpointedCtx(context.Background(), a, model.Discrete, patience, maxRounds, nil, engine.CheckpointPolicy{
				Every: every,
				Save: func(cp *engine.Checkpoint) error {
					saved = append(saved, cp)
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(saved) == 0 {
				t.Fatal("no checkpoints saved")
			}
			resume := saved[len(saved)-1]
			b, err := engine.New(ckptConfig(t, cc))
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			got, err := engine.RunUntilStableCheckpointedCtx(context.Background(), b, model.Discrete, patience, maxRounds, nil, engine.CheckpointPolicy{Resume: resume})
			if err != nil {
				t.Fatal(err)
			}
			if got.Stable != want.Stable || got.Rounds != want.Rounds || got.StabilizedAt != want.StabilizedAt {
				t.Errorf("resumed result (stable=%v rounds=%d at=%d), want (stable=%v rounds=%d at=%d)",
					got.Stable, got.Rounds, got.StabilizedAt, want.Stable, want.Rounds, want.StabilizedAt)
			}
			if !reflect.DeepEqual(got.Outputs, want.Outputs) {
				t.Errorf("resumed outputs diverge:\n got %v\nwant %v", got.Outputs, want.Outputs)
			}
		})
	}
}

// TestCheckpointFlush asserts the graceful-shutdown path: a flush request
// checkpoints at the next round boundary, the run stops with
// ErrInterrupted, and resuming from the flushed checkpoint completes with
// the uninterrupted run's result.
func TestCheckpointFlush(t *testing.T) {
	const patience, maxRounds = 3, 60
	cc := ckptCases()[1] // pushsum with faults
	base, err := engine.New(ckptConfig(t, cc))
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	want, err := engine.RunUntilStableCtx(context.Background(), base, model.Discrete, patience, maxRounds, nil)
	if err != nil {
		t.Fatal(err)
	}

	flush := make(chan struct{}, 1)
	flush <- struct{}{} // pre-armed: flush at the first round boundary
	var flushed *engine.Checkpoint
	a, err := engine.New(ckptConfig(t, cc))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	_, err = engine.RunUntilStableCheckpointedCtx(context.Background(), a, model.Discrete, patience, maxRounds, nil, engine.CheckpointPolicy{
		Flush: flush,
		Save:  func(cp *engine.Checkpoint) error { flushed = cp; return nil },
	})
	if !errors.Is(err, engine.ErrInterrupted) {
		t.Fatalf("flushed run error = %v, want ErrInterrupted", err)
	}
	if flushed == nil {
		t.Fatal("flush did not save a checkpoint")
	}
	if flushed.Round != 1 {
		t.Fatalf("flush checkpoint at round %d, want 1", flushed.Round)
	}

	b, err := engine.New(ckptConfig(t, cc))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, err := engine.RunUntilStableCheckpointedCtx(context.Background(), b, model.Discrete, patience, maxRounds, nil, engine.CheckpointPolicy{Resume: flushed})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || got.Stable != want.Stable || !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Errorf("resumed-after-flush result diverges: got rounds=%d stable=%v, want rounds=%d stable=%v",
			got.Rounds, got.Stable, want.Rounds, want.Stable)
	}
}

// TestCanCheckpoint pins the capability matrix: the mass-passing algorithms
// checkpoint, the structural ones (gossip's sets, minbase's tables) do not
// yet.
func TestCanCheckpoint(t *testing.T) {
	for _, tc := range algoCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engine.Config{
				Schedule: tc.schedule(7, 11),
				Kind:     tc.kind,
				Inputs:   caseInputs(7),
				Factory:  tc.factory(t, 7),
				Seed:     23,
			}
			r, err := engine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			want := tc.name == "pushsum" || tc.name == "metropolis"
			if got := engine.CanCheckpoint(r); got != want {
				t.Errorf("CanCheckpoint(%s) = %v, want %v", tc.name, got, want)
			}
		})
	}
}
