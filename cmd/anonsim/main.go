// Command anonsim runs one algorithm on one anonymous network and prints
// the output trace — the interactive front end to the library. The flags
// become a job.Spec compiled by job.Compile, the same pipeline anonnetd
// runs, so the CLI and the service agree on every network, model, help
// row, function and fault plan.
//
// Usage examples:
//
//	anonsim -graph ring:8 -kind od -func average -values 3,1,4,1,5,9,2,6
//	anonsim -graph bidiring:6 -kind sym -func max -values 1,7,3,2,5,4
//	anonsim -graph ring:6 -kind op -func max -values 1,7,3,2,5,4
//	anonsim -graph splitring:6 -dynamic -kind od -func average -row bound -bound 8 -values 1,2,2,1,2,2
//	anonsim -graph star:5 -kind od -func sum -row leader -leaders 0 -values 9,4,4,4,4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"anonnet/internal/engine"
	"anonnet/internal/job"
	"anonnet/internal/model"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "anonsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("anonsim", flag.ContinueOnError)
	var (
		graphFlag  = fs.String("graph", "ring:6", "network: ring:N, bidiring:N, star:N, path:N, complete:N, hypercube:D, debruijn:K.D, torus:R.C, random:N, randomsym:N, geometric:N, splitring:N, randomdyn:N, pairwise:N")
		kindFlag   = fs.String("kind", "od", "communication model: "+strings.Join(model.Names(), ", "))
		funcFlag   = fs.String("func", "average", "function: one of the catalog names (average, max, min, sum, count, mode, median, …)")
		valuesFlag = fs.String("values", "", "comma-separated input values (default 1..n)")
		rowFlag    = fs.String("row", "nohelp", "centralized help: nohelp, bound, size, leader")
		boundN     = fs.Int("bound", 0, "known bound N ≥ n (row=bound)")
		leadersArg = fs.String("leaders", "", "comma-separated leader agent indices (row=leader)")
		dynFlag    = fs.Bool("dynamic", false, "treat the setting as dynamic (Table 2)")
		rounds     = fs.Int("rounds", 2000, "round budget")
		every      = fs.Int("every", 0, "print outputs every k rounds (0: only the final)")
		seed       = fs.Int64("seed", 1, "RNG seed")
		engineFlag = fs.String("engine", "", "round engine: "+engine.NamesList()+" (vec falls back to seq when the algorithm is not vectorizable)")
		parallel   = fs.Int("parallel", 0, "degree of parallelism: shard count for -engine shard (0: one per core), worker count for -engine vec (0: one inline worker)")
		dot        = fs.Bool("dot", false, "print the round-1 network in Graphviz dot format and exit")

		dropP    = fs.Float64("drop", 0, "fault: per-message drop probability")
		dupP     = fs.Float64("dup", 0, "fault: per-message duplication probability")
		delayP   = fs.Float64("delayp", 0, "fault: per-message delay probability")
		delayMax = fs.Int("delay", 0, "fault: maximum delay in rounds (with -delayp; 0 means 1)")
		stallP   = fs.Float64("stall", 0, "fault: per-agent per-round stall probability")
		crashP   = fs.Float64("crash", 0, "fault: per-agent per-round crash-restart probability")
		churnP   = fs.Float64("churn", 0, "fault: per-link per-window removal probability")
		guard    = fs.String("guard", "repair", "churn connectivity guard: off, reject, repair")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := parseGraph(*graphFlag)
	if err != nil {
		return err
	}
	values, err := parseList(*valuesFlag, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
	if err != nil {
		return fmt.Errorf("-values: %v", err)
	}
	leaders, err := parseList(*leadersArg, strconv.Atoi)
	if err != nil {
		return fmt.Errorf("-leaders: %v", err)
	}
	spec := job.Spec{
		SchemaVersion: job.SpecSchemaVersion,
		Graph:         g,
		Kind:          *kindFlag,
		Row:           *rowFlag,
		BoundN:        *boundN,
		Leaders:       leaders,
		Function:      *funcFlag,
		Values:        values,
		Seed:          *seed,
		Dynamic:       *dynFlag,
		Engine:        *engineFlag,
		Faults: &job.FaultPlan{
			Drop: *dropP, Dup: *dupP, DelayP: *delayP, DelayMax: *delayMax,
			Stall: *stallP, Crash: *crashP,
		},
	}
	// -parallel is the engine's degree of parallelism; the sequential
	// engine has none, so there it is ignored rather than rejected.
	if canon, _ := engine.CanonicalName(*engineFlag); canon == "shard" || canon == "vec" {
		spec.Shards = *parallel
	}
	if *churnP > 0 {
		spec.Faults.Churn = &job.ChurnPlan{Drop: *churnP, Guard: *guard}
	}
	c, err := job.Compile(spec)
	if err != nil {
		return err
	}
	if *dot {
		fmt.Fprint(stdout, c.Schedule.At(1).DOT(*graphFlag, nil))
		return nil
	}

	fmt.Fprintf(stdout, "network: %s (n=%d, %s)\n", *graphFlag, c.N, map[bool]string{true: "static", false: "dynamic"}[c.Setting.Static])
	fmt.Fprintf(stdout, "model:   %v, help: %v\n", c.Setting.Kind, c.Setting.Row)
	fmt.Fprintf(stdout, "cell:    %v\n", c.Setting.Cell())
	fmt.Fprintf(stdout, "func:    %s (%v)\n", c.Func.Name, c.Func.Class)
	if c.Injector != nil {
		fmt.Fprintf(stdout, "faults:  drop=%.2f dup=%.2f delay=%.2f(max %d) stall=%.2f crash=%.2f churn=%.2f guard=%s\n",
			*dropP, *dupP, *delayP, *delayMax, *stallP, *crashP, *churnP, *guard)
	}
	r, err := c.NewRunner()
	if err != nil {
		return err
	}
	defer r.Close()
	if _, vec := r.(*engine.ParallelVec); c.Spec.Engine == "vec" && !vec {
		fmt.Fprintln(stdout, "engine:  vec requested but the algorithm is not vectorizable; using seq (identical traces)")
	}

	fmt.Fprintf(stdout, "true value: %v\n\n", c.Expected)
	lastChange := 0
	prev := fmt.Sprint(r.Outputs())
	for t := 1; t <= *rounds; t++ {
		if err := r.Step(); err != nil {
			return err
		}
		cur := fmt.Sprint(r.Outputs())
		if cur != prev {
			lastChange = t
			prev = cur
		}
		if *every > 0 && t%*every == 0 {
			fmt.Fprintf(stdout, "round %4d: %v\n", t, r.Outputs())
		}
	}
	fmt.Fprintf(stdout, "final outputs after %d rounds: %v\n", *rounds, r.Outputs())
	fmt.Fprintf(stdout, "outputs last changed at round %d\n", lastChange)
	st := r.Stats()
	fmt.Fprintf(stdout, "communication: %d messages over %d rounds (%.1f per agent per round)\n",
		st.MessagesDelivered, st.Rounds, float64(st.MessagesDelivered)/float64(st.Rounds)/float64(c.N))
	if c.Injector != nil {
		fmt.Fprintf(stdout, "faults injected: %d dropped, %d duplicated, %d delayed\n",
			st.Faults.Dropped, st.Faults.Duplicated, st.Faults.Delayed)
	}
	return nil
}

// parseGraph turns a -graph value — "ring:8", "debruijn:K.D", "torus:R.C",
// "hypercube:D" — into a job.GraphSpec. job.Compile checks the builder
// name and the sizes.
func parseGraph(s string) (job.GraphSpec, error) {
	name, arg, _ := strings.Cut(s, ":")
	g := job.GraphSpec{Builder: name}
	var err error
	switch strings.ToLower(name) {
	case "debruijn":
		g.K, g.D, err = parsePair(arg)
	case "torus":
		g.Rows, g.Cols, err = parsePair(arg)
	case "hypercube":
		g.D, err = strconv.Atoi(arg)
	default:
		g.N, err = strconv.Atoi(arg)
	}
	if err != nil {
		return job.GraphSpec{}, fmt.Errorf("graph spec %q: %v", s, err)
	}
	return g, nil
}

func parsePair(s string) (int, int, error) {
	a, b, ok := strings.Cut(s, ".")
	if !ok {
		return 0, 0, errors.New("want two dot-separated numbers")
	}
	x, err := strconv.Atoi(a)
	if err != nil {
		return 0, 0, err
	}
	y, err := strconv.Atoi(b)
	return x, y, err
}

// parseList parses a comma-separated list; the empty string is no list.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]T, len(parts))
	for i, p := range parts {
		v, err := parse(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("item %d: %v", i, err)
		}
		out[i] = v
	}
	return out, nil
}
