package pushsum

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"

	"anonnet/internal/model"
	"anonnet/internal/reconstruct"
)

// Checkpoint support (model.Checkpointable): both Push-Sum automata can
// serialize their dynamic state and restore it into a factory-fresh
// instance, which is what lets long O(n²·D·log 1/ε)-round runs survive a
// daemon restart. gob keeps every float64 bit-exact, so a resumed run's
// trace is byte-identical to an uninterrupted one (asserted by the
// engine's resume-equality tests). The message types are gob-registered so
// in-flight delayed messages (fault plans with delay channels) serialize
// alongside the agent states.

func init() {
	gob.Register(QuotMsg{})
	gob.Register(FreqMsg{})
}

var (
	_ model.Checkpointable = (*QuotSum)(nil)
	_ model.Checkpointable = (*Frequency)(nil)
)

// quotSumState is QuotSum's dynamic state: the running mass pair.
type quotSumState struct {
	Y, Z float64
}

// MarshalState serializes the running (y, z) mass pair.
func (a *QuotSum) MarshalState() ([]byte, error) {
	return encodeState(quotSumState{Y: a.y, Z: a.z})
}

// UnmarshalState restores the running (y, z) mass pair.
func (a *QuotSum) UnmarshalState(data []byte) error {
	var st quotSumState
	if err := decodeState(data, &st); err != nil {
		return fmt.Errorf("pushsum: QuotSum state: %w", err)
	}
	a.y, a.z = st.Y, st.Z
	return nil
}

// frequencyState is Frequency's dynamic state: the recorded outdegree, the
// per-value mass arrays, and the last good output (the output has
// hysteresis — reconstruction failures keep the previous value — so it is
// state, not a function of y and z). The agent keeps its masses in slices
// over its sorted values; the value-keyed maps are the encoding, which
// keeps checkpoints written before that change readable.
type frequencyState struct {
	Outdeg int
	Y, Z   map[float64]float64
	Out    float64
}

// MarshalState serializes the per-value mass arrays and the output.
func (a *Frequency) MarshalState() ([]byte, error) {
	out, ok := a.out.(float64)
	if !ok {
		return nil, fmt.Errorf("pushsum: Frequency output is %T, not float64", a.out)
	}
	y, z := a.massMaps()
	return encodeState(frequencyState{Outdeg: a.outdeg, Y: y, Z: z, Out: out})
}

// UnmarshalState restores the per-value mass arrays and the output. The
// configuration (function, help), the private input, and the
// engine-provided universe are the fresh instance's own.
func (a *Frequency) UnmarshalState(data []byte) error {
	var st frequencyState
	if err := decodeState(data, &st); err != nil {
		return fmt.Errorf("pushsum: Frequency state: %w", err)
	}
	a.vals = a.vals[:0]
	for w := range st.Y {
		a.vals = append(a.vals, w)
	}
	slices.Sort(a.vals)
	a.y, a.z = a.y[:0], a.z[:0]
	for _, w := range a.vals {
		a.y = append(a.y, st.Y[w])
		a.z = append(a.z, st.Z[w])
	}
	a.outdeg, a.out = st.Outdeg, st.Out
	a.memo = reconstruct.Memo{} // the next reconstruction re-evaluates f
	return nil
}

func encodeState(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeState(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
