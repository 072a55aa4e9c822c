// Command perfbench is anonnet's end-to-end benchmark. It drives one
// workload's traffic against a freshly built anonnetd on loopback,
// verifies every result independently, and prints the user-facing
// metrics; with -trace 1 it instead drives the same traffic through
// service.New in process, once untraced and once traced, and prints the
// per-layer split. The last line of standard output is one JSON object.
//
// Run it from the repository root through perfbench/run.sh, which builds
// both binaries:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 5 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runDeadline bounds one invocation; the build runs before it starts.
const runDeadline = 170 * time.Second

// setupRepeats is how many times an end-to-end run sets up a daemon
// (exec, readiness, warm-up); setup_s is their median and the last one
// serves the measured phase.
const setupRepeats = 3

// minJobs is the least number of verified jobs an end-to-end measured
// phase collects, so that at least minBeyond latency samples lie beyond
// the p90.
const minJobs = 100

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	w       *workload
	seed    int64
	dur     time.Duration
	bin     string
	work    string // scratch root for daemon directories and traces
	tmpRoot string
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "workload seed: the generated inputs depend on it alone")
		seconds = flag.Int("seconds", 5, "least length of the measured phase")
		traceOn = flag.Int("trace", 0, "0: end-to-end metrics against the daemon; 1: per-layer metrics from the traced in-process run")
		bin     = flag.String("anonnetd", ".bench_build/bin/anonnetd", "anonnetd binary")
		work    = flag.String("work", ".bench_build", "scratch directory for daemon data and span files")
	)
	flag.Parse()
	w := workloads[*name]
	if w == nil || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds ≥ 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// Daemon and store directories live here for one invocation; what a
	// killed earlier invocation left behind is removed first (one
	// invocation at a time per checkout).
	tmpRoot := *work + "/run"
	if err := os.RemoveAll(tmpRoot); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	opt := options{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, bin: *bin, work: *work, tmpRoot: tmpRoot}

	// A reader that goes away must not kill this process before it has
	// stopped its children: writes to a closed stdout fail instead.
	signal.Ignore(syscall.SIGPIPE)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	// Last resort if something ignores the context: no child survives.
	watchdog := time.AfterFunc(runDeadline+5*time.Second, func() {
		stopAll()
		fmt.Fprintln(os.Stderr, "perfbench: watchdog expired")
		os.Exit(3)
	})
	defer watchdog.Stop()
	defer stopAll()

	fmt.Printf("env go=%s gomaxprocs=%d nproc=%d commit=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit())
	stream := w.stream(*seed)
	digest, err := trafficDigest(stream)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("traffic workload=%s seed=%d digest=%s (first %d specs)\n", w.name, *seed, digest, len(stream))

	var res *result
	if *traceOn == 1 {
		res, err = runLayers(ctx, opt)
	} else {
		res, err = runEndToEnd(ctx, opt)
	}
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: workload %s: %v\n", w.name, err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// commit names the checked-out revision, read from .git without running
// git (which would read configuration outside the checkout); "unknown"
// outside a git work tree.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return shortHash(ref)
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return shortHash(strings.TrimSpace(string(b)))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return shortHash(hash)
			}
		}
	}
	return "unknown"
}

func shortHash(h string) string { return h[:min(len(h), 12)] }

// setUp starts a daemon, waits for its first 200 from /v1/readyz and runs
// the warm-up, returning the daemon, its warmed phase and the set-up time.
func setUp(ctx context.Context, opt options) (*daemon, *phase, *httpTransport, float64, error) {
	t0 := time.Now()
	d, err := startDaemon(opt.bin, opt.tmpRoot, opt.w.durable)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	tp := &httpTransport{base: "http://" + d.addr, client: newHTTPClient(runtime.NumCPU())}
	p := newPhase(opt.w, tp, opt.seed)
	err = d.waitReady(ctx, tp.client)
	if err == nil {
		err = opt.w.warm(ctx, p)
	}
	if err != nil {
		return nil, nil, nil, 0, failed(d, fmt.Errorf("set-up: %w", err))
	}
	return d, p, tp, time.Since(t0).Seconds(), nil
}

// failed prints a daemon's stderr, stops it and passes err on.
func failed(d *daemon, err error) error {
	fmt.Fprintf(os.Stderr, "--- anonnetd stderr ---\n%s--- end ---\n", d.stderr.String())
	d.stop()
	return err
}

// daemonRun is a measured phase against a daemon.
type daemonRun struct {
	rec     *recorder
	elapsed time.Duration
	cpu     float64 // daemon CPU seconds over the measured phase
	rssMiB  float64 // p90 of the daemon's VmRSS samples over the measured phase
	hwmMiB  float64 // daemon VmHWM at the end
	tp      *httpTransport
	ops     int64
}

func (r *daemonRun) jobsPerS() float64 { return float64(len(r.rec.lat)) / r.elapsed.Seconds() }

// measure runs the closed loop against a set-up daemon and stops it.
func measure(ctx context.Context, d *daemon, p *phase, tp *httpTransport, b budget) (*daemonRun, error) {
	cpu0, err := cpuSeconds(d.pid())
	if err != nil {
		return nil, failed(d, err)
	}
	host0, err := readCPUTimes()
	if err != nil {
		return nil, failed(d, err)
	}
	rss := sampleRSS(d.pid())
	rec, elapsed, ops := drive(ctx, p, b)
	rssP90 := rss.stop()
	if err := ctx.Err(); err != nil {
		return nil, failed(d, fmt.Errorf("measured phase: %w", err))
	}
	host1, err := readCPUTimes()
	if err != nil {
		return nil, failed(d, err)
	}
	// Steal is CPU time the hypervisor gave to other guests: a high share
	// marks a run slowed by the host, not by the program.
	fmt.Printf("host steal=%.2f%% over the measured phase\n", stealPct(host0, host1))
	cpu1, err := cpuSeconds(d.pid())
	if err != nil {
		return nil, failed(d, err)
	}
	hwm, err := peakRSSMiB(d.pid())
	if err != nil {
		return nil, failed(d, err)
	}
	for _, m := range rec.msgs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", m)
	}
	if len(rec.lat) == 0 {
		return nil, failed(d, errors.New("no job completed"))
	}
	if rec.failed > 0 {
		fmt.Fprintf(os.Stderr, "--- anonnetd stderr ---\n%s--- end ---\n", d.stderr.String())
	}
	d.stop()
	return &daemonRun{rec: rec, elapsed: elapsed, cpu: cpu1 - cpu0, rssMiB: rssP90, hwmMiB: hwm, tp: tp, ops: ops}, nil
}

// runEndToEnd measures the user-facing metrics against the daemon.
func runEndToEnd(ctx context.Context, opt options) (*result, error) {
	var (
		setups []float64
		d      *daemon
		p      *phase
		tp     *httpTransport
	)
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.stop()
		}
		var s float64
		var err error
		if d, p, tp, s, err = setUp(ctx, opt); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	r, err := measure(ctx, d, p, tp, budget{dur: opt.dur, minJobs: opt.w.jobs})
	if err != nil {
		return nil, err
	}
	lat := summarize(r.rec.lat)
	if lat.Beyond < minBeyond {
		return nil, fmt.Errorf("only %d latency samples; p90 needs %d beyond it", lat.N, minBeyond)
	}
	jobs := len(r.rec.lat)
	errRate := ratio(float64(r.rec.failed), float64(r.rec.attempted))
	fmt.Printf("latency samples=%d p50=%.4gms p90=%.4gms (%d beyond p90)\n", lat.N, lat.P50, lat.P90, lat.Beyond)
	fmt.Printf("error_rate %.6g (%d of %d operations)\n", errRate, r.rec.failed, r.rec.attempted)
	fmt.Printf("setup_s runs=%v\n", setups)
	fmt.Printf("rss p90=%.4gMiB VmHWM=%.4gMiB\n", r.rssMiB, r.hwmMiB)
	return &result{
		Correct:   r.rec.failed == 0,
		Attempted: r.rec.attempted,
		Failed:    r.rec.failed,
		Metrics: map[string]metric{
			"jobs_per_s":     {r.jobsPerS(), "jobs/s"},
			"latency_p50_ms": {lat.P50, "ms"},
			"latency_p90_ms": {lat.P90, "ms"},
			"cpu_ms_per_job": {r.cpu * 1000 / float64(jobs), "ms"},
			"rss_p90_mb":     {r.rssMiB, "MiB"},
			"setup_s":        {median(setups), "s"},
		},
	}, nil
}
