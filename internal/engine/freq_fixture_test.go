package engine_test

// Checkpoint compatibility of the Push-Sum frequency agent. The agent
// keeps its per-value masses in sorted slices, but its state blob and its
// FreqMsg still encode value-keyed maps, so checkpoints written by
// releases that kept maps must resume unchanged. The fixtures under
// testdata were encoded by such a release, one per executor family, at
// round 6 of the run below. Every agent holds the same input value, so
// every map has one entry and its encoding is deterministic: the state
// restored from a fixture must re-encode to the round-6 snapshot of an
// uninterrupted run, and the resumed run must continue to its trace.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anonnet/internal/algorithms/pushsum"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/faults"
	"anonnet/internal/funcs"
	"anonnet/internal/model"
)

const (
	freqFixtureN      = 7
	freqFixtureSeed   = 31
	freqFixtureK      = 6  // the round the fixtures were snapshotted at
	freqFixtureRounds = 20 // the round both runs are compared at
)

// freqFixtureConfig is the fixtures' run: the leader variant of the
// frequency algorithm (Cor. 5.4 with ℓ = 1) computing sum over a single
// input value, on fresh random connected graphs, under a fault plan that
// delays messages. Outputs move from the input value to n times it as the
// leader's mass spreads, so the trace is not constant.
func freqFixtureConfig(t *testing.T) engine.Config {
	t.Helper()
	factory, err := pushsum.NewFrequencyFactory(funcs.Sum(), model.Help{Leaders: 1})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]model.Input, freqFixtureN)
	for i := range inputs {
		inputs[i] = model.Input{Value: 2.5}
	}
	inputs[0].Leader = true
	plan := faults.Plan{Drop: 0.1, DelayP: 0.3, DelayMax: 4}
	inj, err := faults.NewInjector(freqFixtureSeed, plan)
	if err != nil {
		t.Fatal(err)
	}
	return engine.Config{
		Schedule: &dynamic.RandomConnected{Vertices: freqFixtureN, ExtraEdges: 2, Seed: freqFixtureSeed},
		Kind:     model.OutdegreeAware,
		Inputs:   inputs,
		Factory:  factory,
		Seed:     freqFixtureSeed,
		Faults:   inj,
	}
}

// TestFrequencyCheckpointFixtures resumes the committed checkpoints on the
// generic engine ("seq", with a delayed FreqMsg in flight) and on the
// vector kernel ("vec", with Frequency state blobs and delayed rows).
func TestFrequencyCheckpointFixtures(t *testing.T) {
	for _, rn := range runnersNamed(freqFixtureN, "seq", "vec") {
		t.Run(rn.name, func(t *testing.T) {
			path := filepath.Join("testdata", "frequency-"+rn.name+".ckpt")
			a, err := rn.mk(freqFixtureConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			lines, cp := runWithCheckpoint(t, a, freqFixtureRounds, freqFixtureK)
			if outputs(lines[freqFixtureK-1]) == outputs(lines[len(lines)-1]) {
				t.Fatalf("outputs after the fixture round equal the final ones (%s); the trace no longer moves", outputs(lines[len(lines)-1]))
			}
			fixture, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			old, err := engine.DecodeCheckpoint(fixture)
			if err != nil {
				t.Fatal(err)
			}
			if rn.name == "seq" && !holdsFreqMsg(old) {
				t.Fatal("generic fixture carries no delayed FreqMsg; it no longer pins the message encoding")
			}

			b, err := rn.mk(freqFixtureConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if err := b.(engine.Checkpointer).Restore(old); err != nil {
				t.Fatalf("restore %s: %v", path, err)
			}
			// gob numbers types in the order a process first meets them,
			// so bytes are compared only between encodings made here.
			if !bytes.Equal(encodeSnapshot(t, b), encode(t, cp)) {
				t.Fatalf("state restored from %s differs from the round-%d state of the uninterrupted run", path, freqFixtureK)
			}
			spliced := append([]string(nil), lines[:freqFixtureK]...)
			for round := freqFixtureK + 1; round <= freqFixtureRounds; round++ {
				if err := b.Step(); err != nil {
					t.Fatalf("resumed round %d: %v", round, err)
				}
				spliced = append(spliced, traceLine(b))
			}
			if got, full := hashLines(spliced), hashLines(lines); got != full {
				t.Errorf("run resumed from %s: spliced trace hash %s, want uninterrupted %s", path, got, full)
			}
			if !bytes.Equal(encodeSnapshot(t, a), encodeSnapshot(t, b)) {
				t.Errorf("run resumed from %s ends in a different state than the uninterrupted run", path)
			}
		})
	}
}

// outputs strips the round number from a trace line.
func outputs(line string) string {
	_, outs, _ := strings.Cut(line, ":")
	return outs
}

func holdsFreqMsg(cp *engine.Checkpoint) bool {
	for _, dm := range cp.Delayed {
		if _, ok := dm.Msg.(pushsum.FreqMsg); ok {
			return true
		}
	}
	return false
}

// encodeSnapshot encodes a runner's current snapshot: with one-entry
// maps, equal bytes mean bit-equal masses in every agent.
func encodeSnapshot(t *testing.T, r engine.Runner) []byte {
	t.Helper()
	cp, err := r.(engine.Checkpointer).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return encode(t, cp)
}

func encode(t *testing.T, cp *engine.Checkpoint) []byte {
	t.Helper()
	blob, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
