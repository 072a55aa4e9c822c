package model

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// This file is the communication-model registry: the single table every
// layer resolves a model through. A Kind is just a number; the Descriptor
// registered for it carries everything the rest of the system needs to
// host the model — its names, its sending function (the uniform SendPlan
// the round core dispatches through instead of type-switching on agent
// interfaces), its agent-conformance check, its fibration class (which
// also fixes its graph-class constraints), and its vectorization hook for
// the vec/parvec kernels. Adding a model
// means registering one descriptor (plus an algorithm realizing its table
// cell); the engines, the spec codec, the facade, the CLI, and the report
// matrix pick it up from here.

// SendPlan is a model's uniform sending function as the round core
// consumes it: apply the model's σ to agent a, which observes outdeg
// outgoing edges this round, reusing buf (capacity only — the plan
// truncates) for the single-message models so steady-state rounds do not
// allocate. The returned slice holds the agent's sent buffer for the
// round: one message for the broadcast-shaped models, exactly outdeg
// messages (one per port) for the output-port model.
type SendPlan func(a Agent, outdeg int, buf []Message) ([]Message, error)

// VecSendFunc is a model's vectorization hook: how the vec/parvec kernels
// drive a VectorAgent's sending function into a flat SoA row. A nil hook
// in a Descriptor means the model is not vectorizable (its σ has no
// fixed-width vector form) and the kernels fall back to the sequential
// engine, whose traces are identical.
type VecSendFunc func(va VectorAgent, outdeg int, dst []float64)

// Descriptor is one registered communication model.
type Descriptor struct {
	// Kind is the enum value the descriptor is registered under.
	Kind Kind
	// Name is the paper's (or source paper's) name for the model, used in
	// prose and error messages: "simple broadcast", "one-bit broadcast", …
	Name string
	// Canon is the canonical short name used by the job-spec "kind"/
	// "model" fields, the anonsim -kind flag, and the /v1/batch model
	// axis: "bc", "od", "op", "sym", "onebit".
	Canon string
	// Aliases are the accepted alternative spellings (case-insensitive).
	Aliases []string
	// Iface names the sending interface agents must implement, for
	// conformance errors: "model.Broadcaster", "model.BitSender", …
	Iface string

	// Plan is the model's sending function; the engine core's one
	// dispatch site calls it for every active agent every round.
	Plan SendPlan
	// Conforms reports whether an agent implements the model's sending
	// interface; the engines check every agent at construction (and after
	// crash-restarts, through Plan's own assertion).
	Conforms func(a Agent) bool

	// Lifting is the fibration class of the model's executions (Lemma
	// 3.1). It fixes the graph class the topology layer enforces, the slot
	// layout, static-only use, and the kernel equation of Theorem 4.1.
	Lifting Lifting

	// VecSend is the vectorization hook; nil means not vectorizable.
	VecSend VecSendFunc

	// BinaryInputs restricts the model's reference algorithms to inputs
	// in {0, 1}; the spec codec validates (and defaults) values
	// accordingly.
	BinaryInputs bool
	// MinSpecSchema is the lowest job-spec schema_version that may name
	// this model (0 means any); newer models gate on the version that
	// introduced them so old clients cannot be surprised by new
	// semantics.
	MinSpecSchema int
}

var (
	regMu      sync.RWMutex
	registry   = map[Kind]*Descriptor{}
	byName     = map[string]*Descriptor{}
	kindsOrder []Kind
)

// Register adds a model descriptor to the registry. It panics on a
// malformed or duplicate registration: models register from init
// functions, so a bad table is a programming error caught at process
// start, not a runtime condition.
func Register(d Descriptor) {
	regMu.Lock()
	defer regMu.Unlock()
	switch {
	case d.Kind <= 0:
		panic(fmt.Sprintf("model: Register: invalid kind %d", int(d.Kind)))
	case d.Name == "" || d.Canon == "":
		panic(fmt.Sprintf("model: Register(%d): descriptor needs Name and Canon", int(d.Kind)))
	case d.Plan == nil || d.Conforms == nil:
		panic(fmt.Sprintf("model: Register(%q): descriptor needs Plan and Conforms", d.Canon))
	case d.Iface == "":
		panic(fmt.Sprintf("model: Register(%q): descriptor needs Iface for conformance errors", d.Canon))
	case d.Lifting < LiftAny || d.Lifting > LiftSymmetric:
		panic(fmt.Sprintf("model: Register(%q): descriptor needs a Lifting class", d.Canon))
	case registry[d.Kind] != nil:
		panic(fmt.Sprintf("model: Register(%q): kind %d already registered as %q", d.Canon, int(d.Kind), registry[d.Kind].Canon))
	}
	dd := d
	for _, name := range append([]string{d.Canon}, d.Aliases...) {
		key := strings.ToLower(strings.TrimSpace(name))
		if prev, dup := byName[key]; dup {
			panic(fmt.Sprintf("model: Register(%q): name %q already taken by %q", d.Canon, name, prev.Canon))
		}
		byName[key] = &dd
	}
	registry[d.Kind] = &dd
	kindsOrder = append(kindsOrder, d.Kind)
	sort.Slice(kindsOrder, func(i, j int) bool { return kindsOrder[i] < kindsOrder[j] })
}

// Lookup returns the descriptor registered for k, or an error naming the
// registered models.
func Lookup(k Kind) (*Descriptor, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	d := registry[k]
	if d == nil {
		return nil, fmt.Errorf("model: unknown model kind %d (registered models: %s)", int(k), namesListLocked())
	}
	return d, nil
}

// Descriptors returns the registered descriptors in Kind order.
func Descriptors() []*Descriptor {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Descriptor, 0, len(kindsOrder))
	for _, k := range kindsOrder {
		out = append(out, registry[k])
	}
	return out
}

// Parse resolves a model name — canonical short name, paper name, or
// alias, case-insensitively with surrounding space ignored — to its
// descriptor. The second result reports whether the name is known.
func Parse(name string) (*Descriptor, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	d, ok := byName[strings.ToLower(strings.TrimSpace(name))]
	return d, ok
}

// ParseKind resolves a model name to its Kind, with an error listing the
// registered model names — the shape every layer's "unknown model"
// rejection shares (mirroring engine.CanonicalName for engine names).
func ParseKind(name string) (Kind, error) {
	d, ok := Parse(name)
	if !ok {
		return 0, fmt.Errorf("model: unknown model %q (want %s)", name, NamesList())
	}
	return d.Kind, nil
}

// Names returns the canonical model names in Kind order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(kindsOrder))
	for _, k := range kindsOrder {
		out = append(out, registry[k].Canon)
	}
	return out
}

// NamesList renders the canonical model names for error messages:
// "bc, od, op, sym, or onebit".
func NamesList() string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesListLocked()
}

func namesListLocked() string {
	if len(kindsOrder) == 0 {
		return "none registered"
	}
	names := make([]string, 0, len(kindsOrder))
	for _, k := range kindsOrder {
		names = append(names, registry[k].Canon)
	}
	if len(names) == 1 {
		return names[0]
	}
	return strings.Join(names[:len(names)-1], ", ") + ", or " + names[len(names)-1]
}

// vecSendDefault is the vectorization hook of every broadcast-shaped
// model: one fixed-width row per agent, written through the VectorAgent
// contract (which already receives the outdegree, so the outdegree-aware
// model shares it).
func vecSendDefault(va VectorAgent, outdeg int, dst []float64) {
	va.SendVector(outdeg, dst)
}

// The four communication models of the paper, registered in the order
// Table 1 introduces them. Their Plan closures reproduce exactly the send
// dispatch the engines performed before the registry existed, so the
// pre-refactor golden traces pin them byte-identical.
func init() {
	Register(Descriptor{
		Kind:    SimpleBroadcast,
		Name:    "simple broadcast",
		Canon:   "bc",
		Aliases: []string{"broadcast", "simple broadcast"},
		Iface:   "model.Broadcaster",
		Plan: func(a Agent, _ int, buf []Message) ([]Message, error) {
			b, ok := a.(Broadcaster)
			if !ok {
				return nil, fmt.Errorf("model: %T is not a model.Broadcaster", a)
			}
			return append(buf[:0], b.Send()), nil
		},
		Conforms: func(a Agent) bool { _, ok := a.(Broadcaster); return ok },
		Lifting:  LiftAny,
		VecSend:  vecSendDefault,
	})
	Register(Descriptor{
		Kind:    OutdegreeAware,
		Name:    "outdegree awareness",
		Canon:   "od",
		Aliases: []string{"outdegree", "outdegree awareness"},
		Iface:   "model.OutdegreeSender",
		Plan: func(a Agent, outdeg int, buf []Message) ([]Message, error) {
			sd, ok := a.(OutdegreeSender)
			if !ok {
				return nil, fmt.Errorf("model: %T is not a model.OutdegreeSender", a)
			}
			return append(buf[:0], sd.SendOutdegree(outdeg)), nil
		},
		Conforms: func(a Agent) bool { _, ok := a.(OutdegreeSender); return ok },
		Lifting:  LiftOutdegree,
		VecSend:  vecSendDefault,
	})
	Register(Descriptor{
		Kind:    OutputPortAware,
		Name:    "output port awareness",
		Canon:   "op",
		Aliases: []string{"port", "ports", "output port awareness"},
		Iface:   "model.PortSender",
		Plan: func(a Agent, outdeg int, _ []Message) ([]Message, error) {
			sp, ok := a.(PortSender)
			if !ok {
				return nil, fmt.Errorf("model: %T is not a model.PortSender", a)
			}
			msgs := sp.SendPorts(outdeg)
			if len(msgs) != outdeg {
				return nil, fmt.Errorf("model: returned %d port messages, want %d", len(msgs), outdeg)
			}
			return msgs, nil
		},
		Conforms: func(a Agent) bool { _, ok := a.(PortSender); return ok },
		Lifting:  LiftCovering,
		// VecSend nil: one message per port has no fixed-width vector form.
	})
	Register(Descriptor{
		Kind:    Symmetric,
		Name:    "symmetric communications",
		Canon:   "sym",
		Aliases: []string{"symmetric", "symmetric communications"},
		Iface:   "model.Broadcaster",
		Plan: func(a Agent, _ int, buf []Message) ([]Message, error) {
			b, ok := a.(Broadcaster)
			if !ok {
				return nil, fmt.Errorf("model: %T is not a model.Broadcaster", a)
			}
			return append(buf[:0], b.Send()), nil
		},
		Conforms: func(a Agent) bool { _, ok := a.(Broadcaster); return ok },
		Lifting:  LiftSymmetric,
		VecSend:  vecSendDefault,
	})
}
