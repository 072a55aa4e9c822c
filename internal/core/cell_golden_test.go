package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/model"
)

// cellGolden pins, for every runnable cell of Tables 1 and 2, the trace of
// the algorithm NewFactory dispatches the cell's representative function
// to. The hashes were recorded before the help rows and the fibration
// classes were folded into model.Help and model.Descriptor, so they pin
// the frequency variants of Push-Sum and Metropolis and freqcalc with help
// — the paths no engine golden covers. Keys are model/table/row.
var cellGolden = map[string]string{
	"bc/static/none":        "2e5e191ffed8fd63961fc85f6c527884efc4ff3712ec44c08a83722339f0df7f",
	"bc/static/bound":       "2e5e191ffed8fd63961fc85f6c527884efc4ff3712ec44c08a83722339f0df7f",
	"bc/static/size":        "2e5e191ffed8fd63961fc85f6c527884efc4ff3712ec44c08a83722339f0df7f",
	"bc/static/leader":      "2e5e191ffed8fd63961fc85f6c527884efc4ff3712ec44c08a83722339f0df7f",
	"bc/dynamic/none":       "2e5e191ffed8fd63961fc85f6c527884efc4ff3712ec44c08a83722339f0df7f",
	"bc/dynamic/bound":      "2e5e191ffed8fd63961fc85f6c527884efc4ff3712ec44c08a83722339f0df7f",
	"bc/dynamic/size":       "2e5e191ffed8fd63961fc85f6c527884efc4ff3712ec44c08a83722339f0df7f",
	"bc/dynamic/leader":     "2e5e191ffed8fd63961fc85f6c527884efc4ff3712ec44c08a83722339f0df7f",
	"od/static/none":        "6e91497a82d01707d16882c2b285834977bf448871d335571632886562fefdc9",
	"od/static/bound":       "6e91497a82d01707d16882c2b285834977bf448871d335571632886562fefdc9",
	"od/static/size":        "c9d8419bcb9df8c29d0b191b06f8807c1c99d31fa04788749f0bd944dca51b9b",
	"od/static/leader":      "fbe5b52d84a20628da1179db5a535f6a7dc3fc25a61e5d4e36598311f7d431b9",
	"od/dynamic/none":       "41742e731f9d2829cbd90afc196fde0b536e8d65f210ad26afddf914546df110",
	"od/dynamic/bound":      "5950e9f8c5a8ed67ca44e3da246500c3a33e104e5773dffc5b2d39e473e78264",
	"od/dynamic/size":       "3f26d9c774681a6f2508d2bc722e440f6f063857a9d0ef373194ca776ec8598f",
	"od/dynamic/leader":     "85f5fa675532eae7b4247a6faf6c3d9c25e005d8c93742063a8e7c0a346f72cc",
	"op/static/none":        "6e91497a82d01707d16882c2b285834977bf448871d335571632886562fefdc9",
	"op/static/bound":       "6e91497a82d01707d16882c2b285834977bf448871d335571632886562fefdc9",
	"op/static/size":        "c9d8419bcb9df8c29d0b191b06f8807c1c99d31fa04788749f0bd944dca51b9b",
	"op/static/leader":      "fbe5b52d84a20628da1179db5a535f6a7dc3fc25a61e5d4e36598311f7d431b9",
	"sym/static/none":       "cdde93dda7e7d502c28b9f6e6c8b986f6bb603fca733d3443279638eec716ab0",
	"sym/static/bound":      "cdde93dda7e7d502c28b9f6e6c8b986f6bb603fca733d3443279638eec716ab0",
	"sym/static/size":       "9cc04c738bce1e077e92143f6ed80e85e3ec71d7cd4afd562c3248c0ec5da663",
	"sym/static/leader":     "6fb2846d25a0d0d3dda02f8aed93590f921bbbfb0cec2cd6ae2b34a6d47dec87",
	"sym/dynamic/bound":     "0e6d2b2d2b1a1417b88d6cfd9c7eafcecc6fd272e2eca2bfe2b340ae8c273167",
	"sym/dynamic/size":      "3074de7a50b14a86e0692bad86004843f170f07593e6937c319285bd52f43679",
	"onebit/static/none":    "c8958f521b7373b1edc641b1c6d5b468235d911aec277c83423b74e7dcc7454f",
	"onebit/static/bound":   "c8958f521b7373b1edc641b1c6d5b468235d911aec277c83423b74e7dcc7454f",
	"onebit/static/size":    "c8958f521b7373b1edc641b1c6d5b468235d911aec277c83423b74e7dcc7454f",
	"onebit/static/leader":  "c8958f521b7373b1edc641b1c6d5b468235d911aec277c83423b74e7dcc7454f",
	"onebit/dynamic/none":   "49000c134fd1132bae582b71a2188797147d2f5e04e1f64e410623df9b9c6298",
	"onebit/dynamic/bound":  "49000c134fd1132bae582b71a2188797147d2f5e04e1f64e410623df9b9c6298",
	"onebit/dynamic/size":   "49000c134fd1132bae582b71a2188797147d2f5e04e1f64e410623df9b9c6298",
	"onebit/dynamic/leader": "49000c134fd1132bae582b71a2188797147d2f5e04e1f64e410623df9b9c6298",
}

// cellConfig builds the engine configuration of one cell: CellCheck's
// representative inputs and Table 1 networks for six agents, with the
// schedule and seeds pinned when the hashes were recorded — random
// connected round graphs for every Table 2 cell, engine seed 5.
func cellConfig(d *model.Descriptor, s Setting, factory model.Factory) engine.Config {
	cfg := CellCheck{N: 6, Seed: 5}.config(d, s, factory)
	if !s.Static {
		cfg.Schedule = &dynamic.RandomConnected{Vertices: 6, ExtraEdges: 1, Seed: 3}
	}
	return cfg
}

// cellTraceHash hashes rounds rounds of output vectors, one line per
// round, exactly as the engine golden tests do.
func cellTraceHash(t *testing.T, r engine.Runner, rounds int) string {
	t.Helper()
	h := sha256.New()
	for round := 1; round <= rounds; round++ {
		if err := r.Step(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		fmt.Fprintf(h, "%d:%v\n", round, r.Outputs())
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestCellGolden(t *testing.T) {
	const rounds = 120
	rowNames := map[Row]string{RowNoHelp: "none", RowBound: "bound", RowSize: "size", RowLeader: "leader"}
	runnable := map[string]bool{}
	for _, d := range model.Descriptors() {
		for _, static := range []bool{true, false} {
			for _, row := range Rows() {
				s := CellCheck{N: 6}.setting(d.Kind, row, static)
				if s.validate() != nil {
					continue // not a cell of this table
				}
				table := "dynamic"
				if static {
					table = "static"
				}
				name := d.Canon + "/" + table + "/" + rowNames[row]
				factory, err := NewFactory(s.Cell().Representative(), s)
				if errors.Is(err, ErrNotReimplemented) {
					continue // delegated cell
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				runnable[name] = true
				t.Run(name, func(t *testing.T) {
					want, ok := cellGolden[name]
					cfg := cellConfig(d, s, factory)
					seq, err := engine.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := cellTraceHash(t, seq, rounds)
					if !ok {
						t.Errorf("no golden recorded; %q: %q,", name, got)
					} else if got != want {
						t.Errorf("seq: trace hash %s, want golden %s", got, want)
					}
					if !engine.CanVectorize(cfg) {
						return
					}
					vec, err := engine.NewParallelVec(cellConfig(d, s, factory), 1)
					if errors.Is(err, engine.ErrNotVectorizable) {
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					defer vec.Close()
					if got := cellTraceHash(t, vec, rounds); got != want {
						t.Errorf("vec: trace hash %s, want golden %s", got, want)
					}
				})
			}
		}
	}
	for name := range cellGolden {
		if !runnable[name] {
			t.Errorf("golden %s matches no runnable cell", name)
		}
	}
}
