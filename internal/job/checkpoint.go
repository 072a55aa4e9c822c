package job

import (
	"context"
	"fmt"

	"anonnet/internal/engine"
	"anonnet/internal/model"
)

// CheckpointConfig tells RunCheckpointed how to persist and resume engine
// state. The zero value (no Every, no Resume, no Flush) degrades to a
// plain Run.
type CheckpointConfig struct {
	// Every snapshots the engine every k rounds (0 disables periodic
	// checkpoints).
	Every int
	// Resume is an encoded engine checkpoint to restore before round one;
	// nil starts fresh. Resuming a job whose algorithm cannot checkpoint
	// is an error — the blob could only have come from somewhere else.
	Resume []byte
	// Save receives each encoded checkpoint (periodic and flush-triggered).
	Save func(round int, blob []byte) error
	// Flush asks the run to checkpoint at the next round boundary and stop
	// with engine.ErrInterrupted — the graceful-shutdown path.
	Flush <-chan struct{}
}

// RunCheckpointed executes a compiled job like Run, checkpointing the
// engine every cfg.Every rounds through cfg.Save and resuming from
// cfg.Resume when set. Jobs whose algorithm does not implement
// model.Checkpointable run exactly as under Run: no snapshots, and a
// Flush signal is ignored (the job simply runs to completion during the
// drain). An interrupted run surfaces an error wrapping
// engine.ErrInterrupted after its final checkpoint reached cfg.Save.
func RunCheckpointed(ctx context.Context, c *Compiled, obs engine.Observer, ck CheckpointConfig) (*Result, error) {
	r, err := c.NewRunner()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	pol, err := ck.policy(r, c.Hash)
	if err != nil {
		return nil, err
	}
	res, err := engine.RunUntilStableCheckpointedCtx(ctx, r, model.Discrete, c.Spec.Patience, c.Spec.MaxRounds, obs, pol)
	if err != nil {
		return nil, err
	}
	outputs, maxErr := Numeric(res.Outputs, c.Expected)
	st := r.Stats()
	out := &Result{
		Outputs:      outputs,
		Stable:       res.Stable,
		StabilizedAt: res.StabilizedAt,
		Rounds:       res.Rounds,
		Expected:     F64(c.Expected),
		MaxErr:       F64(maxErr),
		Messages:     st.MessagesDelivered,
	}
	if c.Injector != nil {
		out.Faults = &FaultCounts{Dropped: st.Faults.Dropped, Duplicated: st.Faults.Duplicated, Delayed: st.Faults.Delayed}
	}
	return out, nil
}

// policy translates ck into the engine's checkpoint policy for r. A
// config that asks for no checkpointing yields the zero policy without
// inspecting the agents; a runner whose algorithm cannot checkpoint gets
// the zero policy too, unless ck carries a Resume blob it cannot restore.
func (ck CheckpointConfig) policy(r engine.Runner, hash string) (engine.CheckpointPolicy, error) {
	if ck.Every <= 0 && ck.Resume == nil && ck.Flush == nil {
		return engine.CheckpointPolicy{}, nil
	}
	if !engine.CanCheckpoint(r) {
		if ck.Resume != nil {
			return engine.CheckpointPolicy{}, fmt.Errorf("job: %w: spec %s has a resume checkpoint but its algorithm cannot restore one",
				engine.ErrNotCheckpointable, hash)
		}
		return engine.CheckpointPolicy{}, nil
	}
	pol := engine.CheckpointPolicy{Every: ck.Every, Flush: ck.Flush}
	if ck.Save != nil {
		pol.Save = func(cp *engine.Checkpoint) error {
			blob, err := cp.Encode()
			if err != nil {
				return err
			}
			return ck.Save(cp.Round, blob)
		}
	}
	if ck.Resume != nil {
		cp, err := engine.DecodeCheckpoint(ck.Resume)
		if err != nil {
			return engine.CheckpointPolicy{}, fmt.Errorf("job: resume checkpoint: %w", err)
		}
		pol.Resume = cp
	}
	return pol, nil
}
