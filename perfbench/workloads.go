package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"anonnet/internal/job"
)

// workload is one traffic mix. The doc in README.md records why each was
// chosen and which layers it stresses.
type workload struct {
	name string
	// clients is the number of closed-loop clients (each holds at most one
	// connection at a time).
	clients int
	// durable daemons run with a fresh -data-dir.
	durable bool
	// jobs is the fixed work of an end-to-end measured phase: it runs
	// until this many jobs verified, and for at least --seconds. It is at
	// least minJobs, and large enough that on the reference machine the
	// job count, not the clock, ends the phase, so that every run does the
	// same work (and the daemon retains the same number of job records).
	jobs int
	// warm is the untimed warm-up (set-up) on a fresh service.
	warm func(ctx context.Context, p *phase) error
	// op is one closed-loop iteration: it sends the next request, waits
	// for every job it created, verifies them and records the outcome.
	op func(ctx context.Context, p *phase, rec *recorder)
	// sample is the fixed set of specs replayed outside the service for
	// the engine and topology layer metrics.
	sample func(seed int64) []job.Spec
	// stream returns the first specs the workload sends for seed, in
	// order; their hashes are digested to show two runs sent identical
	// traffic.
	stream func(seed int64) []job.Spec
}

// clientCount is the closed-loop concurrency of the two-client workloads,
// capped at the CPU count so that connections never exceed nproc.
func clientCount() int { return min(2, runtime.NumCPU()) }

var workloads = map[string]*workload{
	"sweep": {
		name: "sweep", clients: 1, jobs: 2 * sweepBatch,
		warm: func(ctx context.Context, p *phase) error {
			return p.single(ctx, sweepDraw(p.t)[0], nil)
		},
		op:     sweepOp,
		sample: func(seed int64) []job.Spec { return firstSpecs(seed, sweepDraw, 4) },
		stream: func(seed int64) []job.Spec { return firstSpecs(seed, sweepDraw, digestSpecs) },
	},
	"static-exact": {
		name: "static-exact", clients: clientCount(), jobs: minJobs,
		warm: func(ctx context.Context, p *phase) error {
			for i := 0; i < 2; i++ {
				if err := p.single(ctx, staticDraw(p.t)[0], nil); err != nil {
					return err
				}
			}
			return nil
		},
		op:     func(ctx context.Context, p *phase, rec *recorder) { _ = p.single(ctx, staticDraw(p.t)[0], rec) },
		sample: func(seed int64) []job.Spec { return firstSpecs(seed, staticDraw, len(staticCycle)) },
		stream: func(seed int64) []job.Spec { return firstSpecs(seed, staticDraw, digestSpecs) },
	},
	"dynamic": {
		name: "dynamic", clients: clientCount(), durable: true, jobs: minJobs,
		warm: func(ctx context.Context, p *phase) error { return p.single(ctx, dynamicDraw(p.t)[0], nil) },
		op:   func(ctx context.Context, p *phase, rec *recorder) { _ = p.single(ctx, dynamicDraw(p.t)[0], rec) },
		sample: func(seed int64) []job.Spec {
			return firstSpecs(seed, dynamicDraw, 3)
		},
		stream: func(seed int64) []job.Spec { return firstSpecs(seed, dynamicDraw, digestSpecs) },
	},
	"resubmit": {
		name: "resubmit", clients: clientCount(), jobs: 10_000,
		warm: warmHotSet,
		op:   resubmitOp,
		sample: func(seed int64) []job.Spec {
			hot := hotSpecs(newTraffic(seed))
			out := make([]job.Spec, 0, len(hotSizes))
			for i := 0; i < len(hot); i += hotSeeds {
				out = append(out, hot[i])
			}
			return out
		},
		stream: func(seed int64) []job.Spec { return hotSpecs(newTraffic(seed)) },
	},
}

// digestSpecs is how many leading specs of a workload's stream the
// traffic digest covers.
const digestSpecs = 64

// traffic is a workload's deterministic input generator: everything a
// phase sends is drawn from it, in order, under its lock.
type traffic struct {
	mu   sync.Mutex
	rng  *rand.Rand
	used map[int64]bool
	k    int
}

func newTraffic(seed int64) *traffic {
	return &traffic{rng: rand.New(rand.NewSource(seed)), used: make(map[int64]bool)}
}

// seed draws a job seed never drawn before from this generator, so every
// fresh job has a distinct spec hash (no result-cache or dedup hits).
func (t *traffic) seed() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seedLocked()
}

func (t *traffic) seedLocked() int64 {
	for {
		s := t.rng.Int63n(1<<40) + 1
		if !t.used[s] {
			t.used[s] = true
			return s
		}
	}
}

// next returns the position of the next draw in a cyclic workload.
func (t *traffic) next() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.k++
	return t.k - 1
}

func firstSpecs(seed int64, draw func(*traffic) []job.Spec, n int) []job.Spec {
	t := newTraffic(seed)
	var out []job.Spec
	for len(out) < n {
		out = append(out, draw(t)...)
	}
	return out[:n]
}

// trafficDigest hashes the canonical hashes of specs, in order.
func trafficDigest(specs []job.Spec) (string, error) {
	h := sha256.New()
	for _, sp := range specs {
		sum, err := sp.Hash()
		if err != nil {
			return "", err
		}
		fmt.Fprintln(h, sum)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func modValues(n, m int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i % m)
	}
	return v
}

// --- sweep -------------------------------------------------------------

// sweepBatch is the batch size: service.MaxBatchSize, the most one
// request may carry.
const sweepBatch = 64

func sweepSpec(seed int64) job.Spec {
	return job.Spec{
		Graph:    job.GraphSpec{Builder: "hypercube", D: 12},
		Kind:     "bc",
		Function: "max",
		Values:   modValues(1<<12, 16),
		Patience: 2,
		Seed:     seed,
	}
}

// sweepDraw draws one batch's members.
func sweepDraw(t *traffic) []job.Spec {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]job.Spec, sweepBatch)
	for i := range out {
		out[i] = sweepSpec(t.seedLocked())
	}
	return out
}

func sweepOp(ctx context.Context, p *phase, rec *recorder) {
	members := sweepDraw(p.t)
	var bb batchBody
	bb.Template = sweepSpec(0)
	for _, m := range members {
		bb.Grid.Seeds = append(bb.Grid.Seeds, m.Seed)
	}
	body, err := json.Marshal(bb)
	if err != nil {
		rec.fail(len(members), "encoding batch: %v", err)
		return
	}
	ctx, root := p.tr.begin(ctx, "client.batch", "")
	defer p.tr.end(root)
	t0 := time.Now()
	_, ids, err := p.tp.batch(ctx, body)
	if err == nil && len(ids) != len(members) {
		err = fmt.Errorf("batch returned %d jobs for %d seeds", len(ids), len(members))
	}
	if err != nil {
		rec.fail(len(members), "batch: %v", err)
		return
	}
	lat := make([]float64, len(ids))
	for i, id := range ids {
		if _, err := p.tp.wait(ctx, id); err != nil {
			lat[i] = -1
			continue
		}
		lat[i] = float64(time.Since(t0)) / 1e6
	}
	want := expectation(members[0])
	for i, id := range ids {
		if lat[i] < 0 {
			rec.fail(1, "job %s: waiting on its stream failed", id)
			continue
		}
		jv, err := p.tp.get(ctx, id)
		if err == nil {
			err = verify(jv, want)
		}
		if err != nil {
			rec.failJob(id, jv, err)
			continue
		}
		rec.ok(lat[i], jv)
	}
}

// --- static-exact ------------------------------------------------------

// staticCycle is the fixed cycle of Theorem 4.1 specs (minimum base /
// frequency computation), all with the default values 1..n.
var staticCycle = []job.Spec{
	{Graph: job.GraphSpec{Builder: "ring", N: 12}, Kind: "od", Function: "average"},
	{Graph: job.GraphSpec{Builder: "random", N: 12}, Kind: "od", Function: "average"},
	{Graph: job.GraphSpec{Builder: "debruijn", K: 2, D: 4}, Kind: "op", Function: "average"},
	{Graph: job.GraphSpec{Builder: "bidiring", N: 12}, Kind: "sym", Row: "size", Function: "sum"},
	{Graph: job.GraphSpec{Builder: "torus", Rows: 3, Cols: 4}, Kind: "od", Row: "leader", Leaders: []int{0}, Function: "sum"},
}

func staticDraw(t *traffic) []job.Spec {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := staticCycle[t.k%len(staticCycle)]
	t.k++
	sp.Seed = t.seedLocked()
	return []job.Spec{sp}
}

// --- dynamic -----------------------------------------------------------

const dynamicN = 512

func dynamicDraw(t *traffic) []job.Spec {
	return []job.Spec{{
		SchemaVersion: 6,
		Graph:         job.GraphSpec{Builder: "randomdyn", N: dynamicN},
		Kind:          "od",
		Row:           "bound",
		BoundN:        dynamicN,
		Function:      "average",
		Values:        modValues(dynamicN, 4),
		Patience:      100,
		Engine:        "vec",
		Seed:          t.seed(),
	}}
}

// --- resubmit ----------------------------------------------------------

var hotSizes = []int{64, 256, 1024, 4096}

const hotSeeds = 16

// hotSpecs draws the resubmit hot set: every size × hotSeeds fresh seeds.
func hotSpecs(t *traffic) []job.Spec {
	var out []job.Spec
	for _, n := range hotSizes {
		for i := 0; i < hotSeeds; i++ {
			out = append(out, job.Spec{
				Graph:    job.GraphSpec{Builder: "bidiring", N: n},
				Kind:     "bc",
				Function: "max",
				Values:   modValues(n, 16),
				Patience: 2,
				Seed:     t.seed(),
			})
		}
	}
	return out
}

// hotJob is one member of the hot set with the result recorded at set-up.
type hotJob struct {
	body   []byte
	result json.RawMessage
}

// warmHotSet submits the hot set, waits for every member, verifies it and
// records its result for the byte comparison of the measured phase.
func warmHotSet(ctx context.Context, p *phase) error {
	specs := hotSpecs(p.t)
	hot := make([]hotJob, len(specs))
	ids := make([]string, len(specs))
	for i, sp := range specs {
		body, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		_, jv, err := p.tp.submit(ctx, body)
		if err != nil {
			return fmt.Errorf("hot set: %w", err)
		}
		hot[i].body, ids[i] = body, jv.ID
	}
	for i, id := range ids {
		if _, err := p.tp.wait(ctx, id); err != nil {
			return fmt.Errorf("hot set: %w", err)
		}
		jv, err := p.tp.get(ctx, id)
		if err != nil {
			return fmt.Errorf("hot set: %w", err)
		}
		if err := verify(jv, expectation(specs[i])); err != nil {
			return fmt.Errorf("hot set job %s spec %s: %w", id, jv.Hash, err)
		}
		hot[i].result = jv.Result
	}
	p.hot = hot
	return nil
}

func resubmitOp(ctx context.Context, p *phase, rec *recorder) {
	h := p.hot[p.t.next()%len(p.hot)]
	ctx, root := p.tr.begin(ctx, "client.job", "")
	t0 := time.Now()
	status, jv, err := p.tp.submit(ctx, h.body)
	p.tr.end(root)
	switch {
	case err != nil:
		rec.fail(1, "resubmit: %v", err)
	case status != http.StatusOK || !jv.CacheHit:
		rec.failJob(jv.ID, jv, fmt.Errorf("status %d, cache_hit %v; want 200 and a cache hit", status, jv.CacheHit))
	case !bytes.Equal(jv.Result, h.result):
		rec.failJob(jv.ID, jv, fmt.Errorf("result differs from the one recorded at set-up"))
	default:
		rec.ok(float64(jv.received.Sub(t0))/1e6, nil)
	}
}
