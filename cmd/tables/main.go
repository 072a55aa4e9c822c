// Command tables empirically regenerates Tables 1 and 2 of the paper: for
// every (communication model × centralized help) cell it runs the algorithm
// realizing the cell's positive half on representative networks and checks
// the outputs, and regenerates the negative half with the fibration
// witnesses of §4.1. The checks are internal/core's CellCheck; this command
// prints them, one verified cell at a time, and exits 1 when a cell fails.
//
// Usage:
//
//	tables [-table 0|1|2] [-n N] [-rounds R] [-seed S] [-v]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"anonnet/internal/core"
	"anonnet/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run regenerates the selected tables onto stdout and returns the exit
// code: 0 when every cell verified, 1 when one failed, 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table   = fs.Int("table", 0, "which table to regenerate (1, 2, or 0 for both)")
		n       = fs.Int("n", 6, "network size for the verification runs")
		rounds  = fs.Int("rounds", 4000, "round budget per run")
		seed    = fs.Int64("seed", 1, "base RNG seed")
		verbose = fs.Bool("v", false, "print per-run details")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *table < 0 || *table > 2 {
		fmt.Fprintf(stderr, "tables: unknown -table %d; valid: 0 (both), 1, 2\n", *table)
		return 2
	}
	check := core.CellCheck{N: *n, Rounds: *rounds, Seed: *seed}
	ok := true
	if *table == 0 || *table == 1 {
		ok = printTable(stdout, check, "Table 1: static, strongly connected anonymous networks", true, *verbose) && ok
	}
	if *table == 0 || *table == 2 {
		fmt.Fprintln(stdout)
		ok = printTable(stdout, check, "Table 2: dynamic anonymous networks with finite dynamic diameter", false, *verbose) && ok
	}
	if !ok {
		fmt.Fprintln(stdout, "\nRESULT: some cells FAILED verification")
		return 1
	}
	fmt.Fprintln(stdout, "\nRESULT: all cells verified")
	return 0
}

// printTable checks every cell of one table and renders the matrix — one
// row per model, one column per centralized-help row. Failures, and with
// verbose every check's details, are printed as the cells are checked.
func printTable(w io.Writer, check core.CellCheck, title string, static, verbose bool) bool {
	header := []string{"model"}
	for _, row := range core.Rows() {
		header = append(header, row.String())
	}
	tab := report.NewTable(title, header...)
	ok := true
	for _, d := range core.TableModels(static) {
		cells := []any{d.Name}
		for _, row := range core.Rows() {
			log, err := check.Check(d.Kind, row, static)
			if verbose {
				for _, line := range log {
					fmt.Fprintf(w, "    %v/%v: %s\n", d.Kind, row, line)
				}
			}
			mark := "✓"
			if err != nil {
				fmt.Fprintf(w, "    ! %v/%v: %v\n", d.Kind, row, err)
				mark = "✗"
				ok = false
			}
			cells = append(cells, mark+" "+core.Setting{Kind: d.Kind, Static: static, Row: row}.Cell().String())
		}
		tab.AddRow(cells...)
	}
	if err := tab.WriteText(w); err != nil {
		fmt.Fprintf(w, "! rendering %s: %v\n", title, err)
		return false
	}
	return ok
}
