package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"anonnet/internal/engine"
	"anonnet/internal/job"
	"anonnet/internal/model"
	"anonnet/internal/service"
	"anonnet/internal/store"
	"anonnet/internal/topology"
)

// timingFS is the store.Options.FS seam: it passes every call through to
// the real filesystem and counts the bytes written and the time spent in
// Write, Sync and Rename, recording a span around each when tracing.
type timingFS struct {
	store.FS
	tr    *tracer
	bytes atomic.Int64
	nanos atomic.Int64
	ckpts atomic.Int64
}

type fsCounts struct{ bytes, nanos, ckpts int64 }

func (f *timingFS) counts() fsCounts {
	return fsCounts{f.bytes.Load(), f.nanos.Load(), f.ckpts.Load()}
}

func (f *timingFS) timed(name string, fn func() error) error {
	_, sp := f.tr.begin(context.Background(), name, "")
	t0 := time.Now()
	err := fn()
	f.nanos.Add(int64(time.Since(t0)))
	f.tr.end(sp)
	return err
}

func (f *timingFS) OpenFile(path string, flag int, perm os.FileMode) (store.File, error) {
	fl, err := f.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: fl, fs: f}, nil
}

func (f *timingFS) CreateTemp(dir, pattern string) (store.File, error) {
	fl, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: fl, fs: f}, nil
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	if strings.HasSuffix(newpath, ".ckpt") {
		f.ckpts.Add(1)
	}
	return f.timed("store.rename", func() error { return f.FS.Rename(oldpath, newpath) })
}

type timingFile struct {
	store.File
	fs *timingFS
}

func (t *timingFile) Write(p []byte) (int, error) {
	var n int
	err := t.fs.timed("store.write", func() error {
		var err error
		n, err = t.File.Write(p)
		return err
	})
	t.fs.bytes.Add(int64(n))
	return n, err
}

func (t *timingFile) Sync() error { return t.fs.timed("store.sync", t.File.Sync) }

// inprocRun is a measured phase against a service in this process.
type inprocRun struct {
	rec            *recorder
	elapsed        time.Duration
	stats0, stats1 service.Stats
	fs0, fs1       fsCounts
}

func (r *inprocRun) jobsPerS() float64 { return float64(len(r.rec.lat)) / r.elapsed.Seconds() }

// runInProcess drives the workload through service.New with the daemon's
// configuration (anonnetd's flag defaults plus the benchmark's -every and,
// when durable, a store on a fresh directory), behind the timing FS. With
// a tracer, spans are recorded during the measured phase only.
func runInProcess(ctx context.Context, opt options, tr *tracer, ops int64) (*inprocRun, error) {
	fs := &timingFS{FS: store.OS(), tr: tr}
	var st *store.Store
	if opt.w.durable {
		dir, err := os.MkdirTemp(opt.tmpRoot, "inproc-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if st, err = store.Open(filepath.Join(dir, "data"), store.Options{FS: fs}); err != nil {
			return nil, err
		}
		defer st.Close()
	}
	svc := service.New(service.Config{ProgressEvery: progressEvery, Store: st})
	defer svc.Close()
	p := newPhase(opt.w, &inprocTransport{svc: svc, tr: tr}, opt.seed)
	p.tr = tr
	if err := opt.w.warm(ctx, p); err != nil {
		return nil, fmt.Errorf("in-process set-up: %w", err)
	}
	r := &inprocRun{stats0: svc.Stats(), fs0: fs.counts()}
	if tr != nil {
		tr.on.Store(true)
	}
	r.rec, r.elapsed, _ = drive(ctx, p, budget{ops: ops})
	if tr != nil {
		tr.on.Store(false)
	}
	r.stats1, r.fs1 = svc.Stats(), fs.counts()
	for _, m := range r.rec.msgs {
		fmt.Fprintln(os.Stderr, "perfbench: in-process failure:", m)
	}
	if len(r.rec.lat) == 0 {
		return nil, fmt.Errorf("in-process run completed no job")
	}
	return r, nil
}

// engineConfig rebuilds the engine configuration job.Run uses for c,
// borrowing the pinned shared snapshot exactly as the service does.
func engineConfig(c *job.Compiled) (engine.Config, string) {
	cfg := engine.Config{
		Schedule: c.Schedule,
		Kind:     c.Setting.Kind,
		Inputs:   c.Inputs,
		Factory:  c.Factory,
		Seed:     c.Spec.Seed,
		Starts:   c.Spec.Starts,
	}
	if c.Injector != nil {
		cfg.Faults = c.Injector
	}
	if e := c.TopoEntry(); e != nil {
		cfg.SharedSnapshot, cfg.SharedGraph = e.Snap, e.Graph
	}
	name := c.Spec.Engine
	if c.Spec.Concurrent {
		name = "conc"
	}
	return cfg, name
}

// meter wraps one call into the engine: a span in the timed pass, a heap
// allocation count in the allocation pass.
type meter func(name string, fn func())

// stepLoop runs c to stabilization exactly as the service harness does
// (engine.RunUntilStableCtx under the discrete metric), metering
// construction, every Step and every Outputs. It returns the rounds run
// and the runner's own CSR builds.
func stepLoop(c *job.Compiled, m meter) (rounds int, builds int64, err error) {
	cfg, name := engineConfig(c)
	var r engine.Runner
	m("engine.construct", func() { r, err = engine.NewRunner(cfg, name, c.Spec.Shards) })
	if err != nil {
		return 0, 0, err
	}
	defer r.Close()
	outputs := func() (o []model.Value) {
		m("engine.outputs", func() { o = r.Outputs() })
		return o
	}
	prev := outputs()
	unchanged := 0
	for t := 1; t <= c.Spec.MaxRounds && unchanged < c.Spec.Patience; t++ {
		m("engine.step", func() { err = r.Step() })
		if err != nil {
			return 0, 0, err
		}
		cur := outputs()
		if outputsEqual(prev, cur) {
			unchanged++
		} else {
			unchanged = 0
		}
		prev = cur
	}
	if ts, ok := r.(interface{ TopologyStats() topology.BuildStats }); ok {
		builds = ts.TopologyStats().Builds
	}
	return r.Round(), builds, nil
}

func outputsEqual(a, b []model.Value) bool {
	for i := range a {
		if model.Discrete(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// engineSample is the replay of a workload's fixed sample outside the
// service.
type engineSample struct {
	jobs          int
	rounds        float64 // total
	builds        float64 // runner CSR builds plus topology-cache misses
	stepAllocs    []float64
	outputsAllocs []float64
	harnessMs     []float64 // per job: job.Run minus construct and Σ(step+outputs)
}

// replay compiles the sample against one shared topology cache, as the
// service does, and for each job runs a timed pass, an allocation pass and
// a plain job.Run, plus the compile, snapshot-build and round-graph
// probes. Spans go to tr, which must be on.
func replay(ctx context.Context, tr *tracer, specs []job.Spec) (*engineSample, error) {
	es := &engineSample{}
	cache := topology.NewCache(0)
	for _, sp := range specs {
		if err := probeCompile(ctx, tr, sp); err != nil {
			return nil, err
		}
		c, err := job.CompileWithCache(sp, cache)
		if err != nil {
			return nil, err
		}
		err = es.replayOne(ctx, tr, c)
		c.ReleaseTopo()
		if err != nil {
			return nil, fmt.Errorf("replaying %s: %w", c.Hash[:12], err)
		}
	}
	es.builds += float64(cache.Stats().Misses)
	return es, nil
}

// replayReps is how often the timed pass and job.Run repeat per sampled
// job; the harness's own time is the difference of their minima.
const replayReps = 2

func (es *engineSample) replayOne(ctx context.Context, tr *tracer, c *job.Compiled) error {
	id := c.Hash[:12]
	var inLoop float64 // ms in construct, steps and outputs
	timed := func(name string, fn func()) {
		_, sp := tr.begin(ctx, name, id)
		t0 := time.Now()
		fn()
		inLoop += float64(time.Since(t0)) / 1e6
		tr.end(sp)
	}
	var (
		rounds            int
		builds            int64
		bestLoop, bestRun = math.Inf(1), math.Inf(1)
	)
	for rep := 0; rep < replayReps; rep++ {
		var err error
		inLoop = 0
		if rounds, builds, err = stepLoop(c, timed); err != nil {
			return err
		}
		bestLoop = min(bestLoop, inLoop)
		_, sp := tr.begin(ctx, "job.run", id)
		t0 := time.Now()
		_, err = job.Run(ctx, c, nil)
		bestRun = min(bestRun, float64(time.Since(t0))/1e6)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	es.harnessMs = append(es.harnessMs, bestRun-bestLoop)

	var ms0, ms1 runtime.MemStats
	counted := func(name string, fn func()) {
		runtime.ReadMemStats(&ms0)
		fn()
		runtime.ReadMemStats(&ms1)
		allocs := float64(ms1.Mallocs - ms0.Mallocs)
		switch name {
		case "engine.step":
			es.stepAllocs = append(es.stepAllocs, allocs)
		case "engine.outputs":
			es.outputsAllocs = append(es.outputsAllocs, allocs)
		}
	}
	if _, _, err := stepLoop(c, counted); err != nil {
		return err
	}

	g := c.Schedule.At(1)
	for i := 0; i < 3; i++ {
		_, sp := tr.begin(ctx, "topology.snapshot_build", id)
		_, err := topology.BuildSnapshot(g, c.Setting.Kind)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	for t := 1; t <= rounds; t++ {
		_, sp := tr.begin(ctx, "dynamic.at", id)
		c.Schedule.At(t)
		tr.end(sp)
	}
	es.jobs++
	es.rounds += float64(rounds)
	es.builds += float64(builds)
	return nil
}

// probeCompile times job.CompileWithCache on sp against a fresh cache:
// the first compile misses (builds the snapshot), the second hits.
func probeCompile(ctx context.Context, tr *tracer, sp job.Spec) error {
	cache := topology.NewCache(0)
	for _, name := range []string{"job.compile_miss", "job.compile_hit"} {
		_, s := tr.begin(ctx, name, "")
		c, err := job.CompileWithCache(sp, cache)
		tr.end(s)
		if err != nil {
			return err
		}
		defer c.ReleaseTopo()
	}
	return nil
}

// runLayers is the -trace 1 run: the daemon phase for the anonnetd
// metrics, then the same traffic in process untraced and traced, then the
// engine replay of the workload's fixed sample. The daemon phase lasts
// --seconds; the in-process phases then send exactly the operations it
// sent, so all see identical traffic. The untraced phase
// runs before and after the traced one and the two are averaged, so that
// neither side of the tracing overhead pays alone for the process's
// first-phase heap growth.
func runLayers(ctx context.Context, opt options) (*result, error) {
	d, p, tp, _, err := setUp(ctx, opt)
	if err != nil {
		return nil, err
	}
	dr, err := measure(ctx, d, p, tp, budget{dur: opt.dur, minJobs: 1})
	if err != nil {
		return nil, err
	}
	before, err := runInProcess(ctx, opt, nil, dr.ops)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := runInProcess(ctx, opt, tr, dr.ops)
	if err != nil {
		return nil, err
	}
	after, err := runInProcess(ctx, opt, nil, dr.ops)
	if err != nil {
		return nil, err
	}
	plainJPS := (before.jobsPerS() + after.jobsPerS()) / 2
	tr.on.Store(true)
	es, err := replay(ctx, tr, opt.w.sample(opt.seed))
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}

	spans := tr.finished()
	self := selfTimes(spans)
	total := byName(spans)
	printSpanTable(spans, self)
	path := filepath.Join(opt.work, "traces", fmt.Sprintf("%s-seed%d.ndjson", opt.w.name, opt.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans %d written to %s\n", len(spans), path)

	jobs := float64(len(traced.rec.lat))
	sum := func(names ...string) float64 {
		s := 0.0
		for _, n := range names {
			for _, v := range total[n] {
				s += v
			}
		}
		return s
	}
	dlat := summarize(dr.rec.lat)
	queue := summarize(total["service.queue"])
	perJob := func(x float64) float64 { return x / float64(es.jobs) }
	rounds := perJob(es.rounds)
	constructMs := mean(total["engine.construct"])
	stepUs := mean(total["engine.step"]) * 1000
	outputsUs := mean(total["engine.outputs"]) * 1000
	harnessMs := mean(es.harnessMs)
	s0, s1 := traced.stats0, traced.stats1
	hits := float64(s1.CacheHits - s0.CacheHits)
	hitRatio := ratio(hits, float64(s1.Submitted-s0.Submitted))

	// Accounting of the daemon's median latency: the front door's decode,
	// submit and result encoding per job (traced run), the daemon's own
	// median queue wait (from the job timestamps its GET returns) and, for
	// the jobs that execute at all (not result-cache hits), construction,
	// the rounds' Step and Outputs, and the harness's own time. What is
	// left is HTTP, client and scheduling time.
	execShare := 1 - hitRatio
	parts := []struct {
		name string
		ms   float64
	}{
		{"decode", sum("job.decode") / jobs},
		{"submit", sum("service.submit", "service.submit_batch") / jobs},
		{"result_encode", mean(total["job.result_encode"])},
		{"queue_wait", median(dr.rec.queueMs)},
		{"construct", execShare * constructMs},
		{"steps", execShare * rounds * stepUs / 1000},
		{"outputs", execShare * (rounds + 1) * outputsUs / 1000},
		{"harness_self", execShare * harnessMs},
	}
	accounted := 0.0
	fmt.Printf("accounting latency_p50_ms=%.4g =", dlat.P50)
	for _, pt := range parts {
		accounted += pt.ms
		fmt.Printf(" %s %.4g +", pt.name, pt.ms)
	}
	residual := dlat.P50 - accounted
	fmt.Printf(" residual %.4g (%.1f%%)\n", residual, 100*ratio(residual, dlat.P50))
	// Jobs run slower in the daemon, two at a time beside the HTTP server
	// and the client, than alone in the replay; that difference is part
	// of the residual.
	replayed := 0.0
	for _, pt := range parts[4:] {
		replayed += pt.ms
	}
	fmt.Printf("accounting daemon exec p50=%.4gms vs replayed %.4gms per job (%+.4gms under load)\n",
		median(dr.rec.execMs), replayed, median(dr.rec.execMs)-replayed)

	res := &result{
		Correct:   dr.rec.failed+before.rec.failed+traced.rec.failed+after.rec.failed == 0,
		Attempted: dr.rec.attempted + before.rec.attempted + traced.rec.attempted + after.rec.attempted,
		Failed:    dr.rec.failed + before.rec.failed + traced.rec.failed + after.rec.failed,
		Metrics: map[string]metric{
			"anonnetd.submit_ms":         {median(dr.tp.submitMs), "ms"},
			"anonnetd.result_get_ms":     {median(dr.tp.getMs), "ms"},
			"anonnetd.resp_kb_per_job":   {float64(dr.tp.respBytes) / 1024 / float64(len(dr.rec.lat)), "KiB"},
			"anonnetd.overhead_pct":      {100 * (1 - dr.jobsPerS()/plainJPS), "%"},
			"job.decode_us":              {1000 * sum("job.decode") / jobs, "us"},
			"job.compile_miss_us":        {1000 * median(total["job.compile_miss"]), "us"},
			"job.compile_hit_us":         {1000 * median(total["job.compile_hit"]), "us"},
			"job.result_encode_us":       {1000 * mean(total["job.result_encode"]), "us"},
			"topology.snapshot_build_ms": {median(total["topology.snapshot_build"]), "ms"},
			"topology.builds_per_job":    {perJob(es.builds), "count"},
			"topology.cache_hit_ratio": {ratio(float64(s1.TopoCacheHits-s0.TopoCacheHits),
				float64(s1.TopoCacheHits-s0.TopoCacheHits+s1.TopoCacheMisses-s0.TopoCacheMisses)), "ratio"},
			"dynamic.round_graph_us":         {1000 * mean(total["dynamic.at"]), "us"},
			"engine.construct_ms":            {constructMs, "ms"},
			"engine.rounds_per_job":          {rounds, "count"},
			"engine.step_us":                 {stepUs, "us"},
			"engine.outputs_us":              {outputsUs, "us"},
			"engine.step_allocs":             {mean(es.stepAllocs), "count"},
			"engine.outputs_allocs":          {mean(es.outputsAllocs), "count"},
			"engine.harness_self_ms":         {harnessMs, "ms"},
			"service.submit_us":              {1000 * sum("service.submit", "service.submit_batch") / jobs, "us"},
			"service.queue_wait_p50_ms":      {queue.P50, "ms"},
			"service.queue_wait_p90_ms":      {queue.P90, "ms"},
			"service.exec_ms":                {median(total["service.exec"]), "ms"},
			"service.result_cache_hit_ratio": {hitRatio, "ratio"},
			"service.affinity_hit_ratio": {ratio(float64(s1.AffinityHits-s0.AffinityHits),
				float64(s1.AffinityHits-s0.AffinityHits+s1.AffinityMisses-s0.AffinityMisses)), "ratio"},
			"store.write_kb_per_job":    {float64(traced.fs1.bytes-traced.fs0.bytes) / 1024 / jobs, "KiB"},
			"store.write_ms_per_job":    {float64(traced.fs1.nanos-traced.fs0.nanos) / 1e6 / jobs, "ms"},
			"store.checkpoints_per_job": {float64(traced.fs1.ckpts-traced.fs0.ckpts) / jobs, "count"},
			"trace.overhead_pct":        {100 * (1 - traced.jobsPerS()/plainJPS), "%"},
			"trace.latency_residual_ms": {residual, "ms"},
		},
	}
	fmt.Printf("phases jobs/s daemon=%.4g inproc=%.4g,%.4g traced=%.4g; queue_wait samples=%d\n",
		dr.jobsPerS(), before.jobsPerS(), after.jobsPerS(), traced.jobsPerS(), queue.N)
	return res, nil
}

// printSpanTable prints, per span name, the call count, total and self
// milliseconds.
func printSpanTable(spans []span, self []int64) {
	type row struct {
		n           int
		total, self float64
	}
	rows := make(map[string]*row)
	for i, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{}
			rows[s.Name] = r
		}
		r.n++
		r.total += float64(s.dur()) / 1e6
		r.self += float64(self[i]) / 1e6
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := rows[n]
		fmt.Printf("span %-26s calls=%-7d total_ms=%-12.4g self_ms=%.4g\n", n, r.n, r.total, r.self)
	}
}
