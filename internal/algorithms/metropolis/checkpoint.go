package metropolis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"

	"anonnet/internal/model"
	"anonnet/internal/reconstruct"
)

// Checkpoint support (model.Checkpointable) for the Metropolis automata;
// see the pushsum package's checkpoint.go for the contract's rationale.
// gob keeps float64 state bit-exact, and the message types are registered
// so delayed in-flight messages serialize under fault plans.

func init() {
	gob.Register(Msg{})
	gob.Register(FreqMsg{})
}

var (
	_ model.Checkpointable = (*Agent)(nil)
	_ model.Checkpointable = (*FreqAgent)(nil)
)

// agentState is Agent's dynamic state: the running estimate and the degree
// recorded by the last send (the weight rule reads it).
type agentState struct {
	X   float64
	Deg int
}

// MarshalState serializes the running estimate and recorded degree.
func (a *Agent) MarshalState() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(agentState{X: a.x, Deg: a.deg}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalState restores the running estimate and recorded degree.
func (a *Agent) UnmarshalState(data []byte) error {
	var st agentState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("metropolis: Agent state: %w", err)
	}
	a.x, a.deg = st.X, st.Deg
	return nil
}

// freqAgentState is FreqAgent's dynamic state: the recorded degree, the
// per-value estimates, and the last good output (reconstruction failures
// keep the previous output, so it is state). The value-keyed map is the
// encoding; the agent itself keeps the estimates in sorted slices.
type freqAgentState struct {
	Deg int
	X   map[float64]float64
	Out float64
}

// MarshalState serializes the per-value estimates and the output.
func (a *FreqAgent) MarshalState() ([]byte, error) {
	out, ok := a.out.(float64)
	if !ok {
		return nil, fmt.Errorf("metropolis: FreqAgent output is %T, not float64", a.out)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(freqAgentState{Deg: a.deg, X: a.Estimates(), Out: out}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalState restores the per-value estimates and the output; the
// configuration and universe are the fresh instance's own.
func (a *FreqAgent) UnmarshalState(data []byte) error {
	var st freqAgentState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("metropolis: FreqAgent state: %w", err)
	}
	a.vals = a.vals[:0]
	for w := range st.X {
		a.vals = append(a.vals, w)
	}
	slices.Sort(a.vals)
	a.x = a.x[:0]
	for _, w := range a.vals {
		a.x = append(a.x, st.X[w])
	}
	a.deg, a.out = st.Deg, st.Out
	a.memo = reconstruct.Memo{} // the next reconstruction re-evaluates f
	return nil
}
