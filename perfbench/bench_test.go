package main

import (
	"encoding/json"
	"strings"
	"testing"

	"anonnet/internal/job"
)

func TestQuantileTailRule(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n        int
		p50, p90 float64
		beyond   int
	}{
		{n: 100, p50: 50, p90: 90, beyond: 10},
		{n: 99, p50: 50, p90: 90, beyond: 9},
		{n: 1, p50: 1, p90: 1, beyond: 0},
		{n: 0, p50: 0, p90: 0, beyond: 0},
	} {
		s := summarize(xs(tc.n))
		if s.N != tc.n || s.P50 != tc.p50 || s.P90 != tc.p90 || s.Beyond != tc.beyond {
			t.Errorf("n=%d: got %+v, want p50 %v p90 %v beyond %d", tc.n, s, tc.p50, tc.p90, tc.beyond)
		}
	}
	// Every workload's measured phase verifies enough jobs for its p90.
	for name, w := range workloads {
		if s := summarize(xs(w.jobs)); w.jobs < minJobs || s.Beyond < minBeyond {
			t.Errorf("%s: %d jobs leave %d samples beyond p90, want ≥ %d", name, w.jobs, s.Beyond, minBeyond)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 50},  // overlaps a: union 10..50
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // clipped to 90..100
		{ID: 4, Parent: 1, Name: "d", Start: 15, End: 20},
		{ID: 5, Parent: -1, Name: "other", Start: 0, End: 7},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 30 - 5, 20, 30, 5, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestParseProc(t *testing.T) {
	// The command name holds spaces and a ')' — fields count from the last one.
	stat := "4242 (anon net) d) S 1 4242 4242 0 -1 4194560 1200 0 0 0 250 75 0 0 20 0 9 0 1234 0 0"
	ticks, err := parseStatTicks(stat)
	if err != nil || ticks != 325 {
		t.Fatalf("parseStatTicks = %d, %v; want 325", ticks, err)
	}
	if _, err := parseStatTicks("4242 (x) S 1 2"); err == nil {
		t.Error("short stat line parsed")
	}
	status := "Name:\tanonnetd\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n"
	for field, want := range map[string]int64{"VmHWM": 51200, "VmRSS": 40000} {
		kib, err := parseStatusKiB(status, field)
		if err != nil || kib != want {
			t.Errorf("parseStatusKiB(%s) = %d, %v; want %d", field, kib, err, want)
		}
	}
	if _, err := parseStatusKiB("Name:\tx\n", "VmHWM"); err == nil {
		t.Error("status without VmHWM parsed")
	}
	if _, err := parseStatusKiB("VmHWM:\t12 MB\n", "VmHWM"); err == nil {
		t.Error("VmHWM in an unexpected unit parsed")
	}
	a, err := parseCPUTimes("cpu  100 0 20 800 5 0 1 10 0 0")
	if err != nil || a.total != 936 || a.steal != 10 {
		t.Fatalf("parseCPUTimes = %+v, %v; want total 936 steal 10", a, err)
	}
	b := cpuTimes{total: a.total + 200, steal: a.steal + 50}
	if got := stealPct(a, b); got != 25 {
		t.Errorf("stealPct = %v, want 25", got)
	}
	if _, err := parseCPUTimes("cpu0 1 2 3 4"); err == nil {
		t.Error("per-CPU line parsed as the machine-wide one")
	}
}

func TestVerifyRejectsTamperedResult(t *testing.T) {
	sp := job.Spec{Graph: job.GraphSpec{Builder: "ring", N: 4}, Kind: "od", Function: "average"}
	want := expectation(sp)
	if want.n != 4 || want.value != 2.5 {
		t.Fatalf("expectation = %+v, want 4 outputs of 2.5", want)
	}
	good := job.Result{Outputs: []job.F64{2.5, 2.5, 2.5, 2.5}, Stable: true, Rounds: 9, Expected: 2.5}
	view := func(r job.Result) *jobView {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return &jobView{ID: "j000001", State: "done", Result: b}
	}
	if err := verify(view(good), want); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}
	tampered := good
	tampered.Outputs = []job.F64{2.5, 2.5, 2.75, 2.5}
	if err := verify(view(tampered), want); err == nil || !strings.Contains(err.Error(), "output 2") {
		t.Errorf("tampered output accepted or misreported: %v", err)
	}
	// The result's own expected value is never trusted.
	lying := tampered
	lying.Expected = 2.75
	lying.Outputs = []job.F64{2.75, 2.75, 2.75, 2.75}
	if err := verify(view(lying), want); err == nil {
		t.Error("result agreeing with its own wrong expected value accepted")
	}
	unstable := good
	unstable.Stable = false
	if err := verify(view(unstable), want); err == nil {
		t.Error("unstable result accepted")
	}
	failed := view(good)
	failed.State = "failed"
	if err := verify(failed, want); err == nil {
		t.Error("failed job accepted")
	}
}

func TestTrafficIsSeedDeterministic(t *testing.T) {
	for name, w := range workloads {
		a, err := trafficDigest(w.stream(7))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := trafficDigest(w.stream(7))
		c, _ := trafficDigest(w.stream(8))
		if a != b || a == c {
			t.Errorf("%s: digests seed 7 %s, again %s, seed 8 %s", name, a, b, c)
		}
	}
}
