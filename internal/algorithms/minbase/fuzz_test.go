package minbase

import (
	"math"
	"testing"

	"anonnet/internal/model"
)

// FuzzDecodeInput checks the codec never round-trips inconsistently and
// rejects garbage gracefully.
func FuzzDecodeInput(f *testing.F) {
	f.Add(EncodeInput(model.Input{Value: 1.5}))
	f.Add(EncodeInput(model.Input{Value: -3, Leader: true}))
	f.Add("garbage")
	f.Add("0x1p+00|maybe")
	f.Add("|true")
	f.Fuzz(func(t *testing.T, s string) {
		in, err := DecodeInput(s)
		if err != nil {
			return // rejection is fine; no panic is the property
		}
		if math.IsNaN(in.Value) {
			return // NaN never round-trips through ==
		}
		// Anything accepted must round-trip exactly.
		back, err := DecodeInput(EncodeInput(in))
		if err != nil || back != in {
			t.Fatalf("round trip failed for %q → %+v → %+v (%v)", s, in, back, err)
		}
	})
}

// labelFrom packs the first 16 bytes of s into a label.
func labelFrom(s string) Label {
	var l Label
	copy(l[:], s)
	return l
}

// FuzzMergeMsg feeds arbitrary message shapes to an agent: no panic, no
// acceptance of uncertified entries.
func FuzzMergeMsg(f *testing.F) {
	f.Add("lbl", "prev", 2, 1)
	f.Add("", "", -1, 0)
	f.Fuzz(func(t *testing.T, label, prev string, out, port int) {
		a, err := NewAgent(model.OutdegreeAware, model.Input{Value: 1})
		if err != nil {
			t.Fatal(err)
		}
		lab := labelFrom(label)
		sig := Sig{Value: "v", Out: out, Prev: labelFrom(prev)}
		m := &Msg{
			Epoch:   0,
			Hist:    []Label{lab},
			Port:    port,
			Entries: []Entry{{Key: Key{Level: 0, Label: lab}, Sig: sig}},
		}
		ok := a.mergeMsg(m)
		if ok && lab != sig.Label() {
			t.Fatalf("uncertified entry accepted: label %v vs %v", lab, sig.Label())
		}
		if a.table.Has(Key{Level: 0, Label: lab}) && lab != sig.Label() {
			t.Fatal("forged entry entered the table")
		}
	})
}
