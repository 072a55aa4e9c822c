package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anonnet/internal/job"
)

// expect is what a correct result holds: n outputs, every one equal to
// value. The benchmark computes value itself from the generated inputs and
// never reads the result's own "expected".
type expect struct {
	n     int
	value float64
}

// specInputs returns n and the private inputs of a generated spec: its
// values, or the service default 1..n when it sends none.
func specInputs(sp job.Spec) (int, []float64) {
	g := sp.Graph
	n := g.N
	switch g.Builder {
	case "hypercube":
		n = 1 << g.D
	case "debruijn":
		n = 1
		for i := 0; i < g.D; i++ {
			n *= g.K
		}
	case "torus":
		n = g.Rows * g.Cols
	}
	if len(sp.Values) > 0 {
		return n, sp.Values
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	return n, vals
}

// reference evaluates the workloads' functions directly.
func reference(fn string, vals []float64) (float64, error) {
	if len(vals) == 0 {
		return 0, fmt.Errorf("no inputs")
	}
	switch fn {
	case "max":
		m := vals[0]
		for _, v := range vals[1:] {
			m = max(m, v)
		}
		return m, nil
	case "sum", "average":
		s := 0.0
		for _, v := range vals {
			s += v
		}
		if fn == "average" {
			s /= float64(len(vals))
		}
		return s, nil
	}
	return 0, fmt.Errorf("no reference for function %q", fn)
}

func expectation(sp job.Spec) expect {
	n, vals := specInputs(sp)
	v, err := reference(sp.Function, vals)
	if err != nil {
		panic(err) // every workload spec names max, sum or average
	}
	return expect{n: n, value: v}
}

// verify checks a job snapshot: done, stable, zero error, and every output
// exactly the independently computed value.
func verify(jv *jobView, want expect) error {
	if jv.State != "done" {
		return fmt.Errorf("state %s (%s)", jv.State, jv.Error)
	}
	if len(jv.Result) == 0 {
		return fmt.Errorf("done without a result")
	}
	var res job.Result
	if err := json.Unmarshal(jv.Result, &res); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	if !res.Stable {
		return fmt.Errorf("not stable after %d rounds", res.Rounds)
	}
	if res.MaxErr != 0 {
		return fmt.Errorf("max_err %v", float64(res.MaxErr))
	}
	if len(res.Outputs) != want.n {
		return fmt.Errorf("%d outputs, want %d", len(res.Outputs), want.n)
	}
	for i, o := range res.Outputs {
		if float64(o) != want.value {
			return fmt.Errorf("output %d is %v, want %v", i, float64(o), want.value)
		}
	}
	return nil
}

// recorder collects a phase's outcomes from all its clients.
type recorder struct {
	mu        sync.Mutex
	lat       []float64 // per verified job, milliseconds
	queueMs   []float64 // per verified job that ran: Started − Submitted
	execMs    []float64 // per verified job that ran: Finished − Started
	attempted int
	failed    int
	msgs      []string
}

// ok records a verified job; jv, when it ran, gives its queue wait.
func (r *recorder) ok(latMs float64, jv *jobView) {
	r.mu.Lock()
	r.lat = append(r.lat, latMs)
	if jv != nil && jv.Started != nil && jv.Finished != nil {
		r.queueMs = append(r.queueMs, float64(jv.Started.Sub(jv.Submitted))/1e6)
		r.execMs = append(r.execMs, float64(jv.Finished.Sub(*jv.Started))/1e6)
	}
	r.attempted++
	r.mu.Unlock()
}

// maxMsgs bounds the failure messages kept for printing.
const maxMsgs = 20

func (r *recorder) fail(n int, format string, args ...any) {
	r.mu.Lock()
	r.attempted += n
	r.failed += n
	if len(r.msgs) < maxMsgs {
		r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// failJob records a job that failed or did not verify, naming its id and
// spec hash.
func (r *recorder) failJob(id string, jv *jobView, err error) {
	hash := ""
	if jv != nil {
		hash = jv.Hash
	}
	r.fail(1, "job %s spec %s: %v", id, hash, err)
}

func (r *recorder) jobs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.lat)
}

// phase is one service under one workload's traffic: a daemon over HTTP,
// or a service in process.
type phase struct {
	w   *workload
	tp  transport
	tr  *tracer // nil when untraced
	t   *traffic
	hot []hotJob
}

func newPhase(w *workload, tp transport, seed int64) *phase {
	return &phase{w: w, tp: tp, t: newTraffic(seed)}
}

// single submits one spec, waits on its stream, fetches and verifies it.
// Latency runs from sending the submit to seeing the terminal line. With
// a nil recorder (warm-up) a failure is returned instead.
func (p *phase) single(ctx context.Context, sp job.Spec, rec *recorder) error {
	body, err := json.Marshal(sp)
	if err != nil {
		return err
	}
	ctx, root := p.tr.begin(ctx, "client.job", "")
	defer p.tr.end(root)
	t0 := time.Now()
	_, jv, err := p.tp.submit(ctx, body)
	var lat float64
	if err == nil {
		_, err = p.tp.wait(ctx, jv.ID)
		lat = float64(time.Since(t0)) / 1e6
	}
	if err == nil {
		id := jv.ID
		if jv, err = p.tp.get(ctx, id); err == nil {
			if verr := verify(jv, expectation(sp)); verr != nil {
				err = fmt.Errorf("job %s spec %s: %w", id, jv.Hash, verr)
			}
		}
	}
	switch {
	case rec == nil:
		return err
	case err != nil:
		rec.fail(1, "%v", err)
	default:
		rec.ok(lat, jv)
	}
	return nil
}

// budget ends a closed-loop phase: once dur has passed and at least
// minJobs jobs verified or, when ops > 0, after exactly ops operations.
type budget struct {
	dur     time.Duration
	minJobs int
	ops     int64
}

// drive runs the workload's closed-loop clients until the budget is spent
// or ctx ends, and returns the outcomes, the elapsed time and the number
// of operations run.
func drive(ctx context.Context, p *phase, b budget) (*recorder, time.Duration, int64) {
	rec := &recorder{}
	var tickets atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < p.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if b.ops > 0 {
					if tickets.Add(1) > b.ops {
						return
					}
				} else if time.Since(start) >= b.dur && rec.jobs() >= b.minJobs {
					return
				} else {
					tickets.Add(1)
				}
				p.w.op(ctx, p, rec)
			}
		}()
	}
	wg.Wait()
	ops := tickets.Load()
	if b.ops > 0 {
		ops = b.ops // every client drew one ticket past the budget
	}
	return rec, time.Since(start), ops
}
