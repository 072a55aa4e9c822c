// Command figures regenerates the quantitative claims of the paper as
// parameter sweeps (the "figures" of this theory paper, DESIGN.md §4):
//
//	F1 pushsum-rate:    Push-Sum ε-convergence vs the O(n²·D·log(1/ε)) bound (Thm 5.2)
//	F2 minbase-rounds:  static frequency computation stabilization vs n + D (§4.2)
//	F3 metropolis-rate: Metropolis convergence vs n² (§5, [10])
//	F4 exact-rounding:  exact stabilization with a bound N vs O(n²·D·log N) (Cor 5.3)
//	F5 dobrushin:       δ(B(t:1)) decay vs the proof's (1 − n^{-2D})^⌊t/D⌋ envelope (§5.3)
//	F6 growing-gaps:    the §6 open regime — no finite dynamic diameter
//
// The sweeps are internal/core's Figures; this command prints them and
// exits 1 when a point exceeds its bound.
//
// Usage:
//
//	figures [-fig all|pushsum-rate|minbase-rounds|metropolis-rate|exact-rounding|dobrushin|growing-gaps] [-seed S] [-csv DIR]
//
// With -csv DIR, each figure's data is additionally written as
// DIR/<fig>.csv for external plotting.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"anonnet/internal/core"
	"anonnet/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run regenerates the selected figures onto stdout and returns the exit
// code: 0 when every sweep is within its bounds, 1 when one is not or a
// run failed, 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig    = fs.String("fig", "all", "which figure to regenerate")
		seed   = fs.Int64("seed", 1, "base RNG seed")
		csvDir = fs.String("csv", "", "directory to write per-figure CSV data into (optional)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []core.Figure
	names := []string{"all"}
	for _, f := range core.Figures() {
		names = append(names, f.Name)
		if *fig == "all" || *fig == f.Name {
			selected = append(selected, f)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "figures: unknown -fig %q; valid: %s\n", *fig, strings.Join(names, ", "))
		return 2
	}
	ok := true
	for _, f := range selected {
		tb, sweepErr := f.Sweep(*seed)
		if err := tb.WriteText(stdout); err != nil {
			fmt.Fprintln(stderr, "figures:", err)
			return 1
		}
		fmt.Fprintln(stdout)
		if sweepErr != nil {
			fmt.Fprintf(stdout, "  ! %s: %v\n", f.Name, sweepErr)
			ok = false
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, f.Name, tb); err != nil {
				fmt.Fprintln(stderr, "figures:", err)
				return 1
			}
		}
	}
	if !ok {
		fmt.Fprintln(stdout, "RESULT: some sweeps exceeded their paper bounds")
		return 1
	}
	fmt.Fprintln(stdout, "RESULT: all sweeps within the paper's bounds")
	return 0
}

// writeCSV writes one figure's table to dir/name.csv.
func writeCSV(dir, name string, tb *report.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	if err := tb.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
