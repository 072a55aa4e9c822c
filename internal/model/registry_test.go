package model

import (
	"strings"
	"testing"
)

func TestRegistryDescriptorsOrderAndShape(t *testing.T) {
	descs := Descriptors()
	if len(descs) != 5 {
		t.Fatalf("%d models registered, want 5", len(descs))
	}
	for i, d := range descs {
		if i > 0 && descs[i-1].Kind >= d.Kind {
			t.Fatalf("descriptors not in Kind order: %d before %d", int(descs[i-1].Kind), int(d.Kind))
		}
		if d.Plan == nil || d.Conforms == nil || d.Name == "" || d.Canon == "" || d.Iface == "" || d.Lifting == 0 {
			t.Fatalf("descriptor %q incomplete: %+v", d.Canon, d)
		}
		got, err := Lookup(d.Kind)
		if err != nil || got != d {
			t.Fatalf("Lookup(%d) = %v, %v; want the registered descriptor", int(d.Kind), got, err)
		}
	}
}

func TestRegistryParse(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
	}{
		{"bc", SimpleBroadcast},
		{"broadcast", SimpleBroadcast},
		{"simple broadcast", SimpleBroadcast},
		{"od", OutdegreeAware},
		{"OUTDEGREE", OutdegreeAware},
		{" op ", OutputPortAware},
		{"ports", OutputPortAware},
		{"sym", Symmetric},
		{"symmetric communications", Symmetric},
		{"onebit", OneBitBroadcast},
		{"one-bit broadcast", OneBitBroadcast},
		{"OneBit", OneBitBroadcast},
	}
	for _, tc := range cases {
		d, ok := Parse(tc.in)
		if !ok || d.Kind != tc.kind {
			t.Errorf("Parse(%q) = %v, %v; want kind %d", tc.in, d, ok, int(tc.kind))
		}
		k, err := ParseKind(tc.in)
		if err != nil || k != tc.kind {
			t.Errorf("ParseKind(%q) = %v, %v; want %d", tc.in, k, err, int(tc.kind))
		}
	}
	if _, ok := Parse("telepathy"); ok {
		t.Fatal("unknown name parsed")
	}
	if _, err := ParseKind("telepathy"); err == nil || !strings.Contains(err.Error(), NamesList()) {
		t.Fatalf("ParseKind rejection does not list the registered models: %v", err)
	}
	if _, err := Lookup(Kind(42)); err == nil || !strings.Contains(err.Error(), NamesList()) {
		t.Fatalf("Lookup rejection does not list the registered models: %v", err)
	}
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"bc", "od", "op", "sym", "onebit"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	if got := NamesList(); got != "bc, od, op, sym, or onebit" {
		t.Fatalf("NamesList() = %q", got)
	}
}

func TestRegisterRejectsBadDescriptors(t *testing.T) {
	mustPanic := func(name string, d Descriptor) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(d)
	}
	plan := func(a Agent, _ int, buf []Message) ([]Message, error) { return buf[:0], nil }
	conforms := func(Agent) bool { return true }
	mustPanic("zero kind", Descriptor{Kind: 0, Name: "x", Canon: "x", Iface: "x", Plan: plan, Conforms: conforms, Lifting: LiftAny})
	mustPanic("no name", Descriptor{Kind: 9, Canon: "x", Iface: "x", Plan: plan, Conforms: conforms, Lifting: LiftAny})
	mustPanic("no plan", Descriptor{Kind: 9, Name: "x", Canon: "x", Iface: "x", Conforms: conforms, Lifting: LiftAny})
	mustPanic("no iface", Descriptor{Kind: 9, Name: "x", Canon: "x", Plan: plan, Conforms: conforms, Lifting: LiftAny})
	mustPanic("no lifting", Descriptor{Kind: 9, Name: "x", Canon: "x9", Iface: "x", Plan: plan, Conforms: conforms})
	mustPanic("bad lifting", Descriptor{Kind: 9, Name: "x", Canon: "x9", Iface: "x", Plan: plan, Conforms: conforms, Lifting: LiftSymmetric + 1})
	mustPanic("dup kind", Descriptor{Kind: SimpleBroadcast, Name: "x", Canon: "x9", Iface: "x", Plan: plan, Conforms: conforms, Lifting: LiftAny})
	mustPanic("dup name", Descriptor{Kind: 9, Name: "x", Canon: "bc", Iface: "x", Plan: plan, Conforms: conforms, Lifting: LiftAny})
	mustPanic("dup alias", Descriptor{Kind: 9, Name: "x", Canon: "x9", Aliases: []string{"ONEBIT"}, Iface: "x", Plan: plan, Conforms: conforms, Lifting: LiftAny})
}

func TestOneBitDescriptor(t *testing.T) {
	d, err := Lookup(OneBitBroadcast)
	if err != nil {
		t.Fatal(err)
	}
	if !d.BinaryInputs {
		t.Error("one-bit model must declare binary inputs")
	}
	if d.MinSpecSchema != 6 {
		t.Errorf("one-bit MinSpecSchema = %d, want 6", d.MinSpecSchema)
	}
	if d.VecSend == nil {
		t.Error("one-bit broadcast shares the broadcast vector form; VecSend must be set")
	}
	if d.Lifting != LiftAny {
		t.Errorf("one-bit broadcast is a blind cast and lifts along any fibration; Lifting = %v", d.Lifting)
	}
}

func TestRegistryLiftingClasses(t *testing.T) {
	want := map[Kind]Lifting{
		SimpleBroadcast: LiftAny,
		OutdegreeAware:  LiftOutdegree,
		OutputPortAware: LiftCovering,
		Symmetric:       LiftSymmetric,
		OneBitBroadcast: LiftAny,
	}
	for k, l := range want {
		d, err := Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if d.Lifting != l {
			t.Errorf("%s: Lifting = %v, want %v", d.Canon, d.Lifting, l)
		}
	}
}

func TestHelp(t *testing.T) {
	if err := (Help{}).Validate(); err != nil {
		t.Errorf("no help rejected: %v", err)
	}
	for _, h := range []Help{{BoundN: -1}, {KnownN: -2}, {Leaders: -3}} {
		if h.Validate() == nil {
			t.Errorf("negative help %+v accepted", h)
		}
	}
	for h, counts := range map[Help]bool{{}: false, {BoundN: 8}: false, {KnownN: 6}: true, {Leaders: 1}: true} {
		if h.Counts() != counts {
			t.Errorf("%+v.Counts() = %t, want %t", h, h.Counts(), counts)
		}
	}
}
