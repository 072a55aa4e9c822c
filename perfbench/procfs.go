package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTicks is USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds returns a process's user+system CPU time.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatTicks(string(b))
	if err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return float64(ticks) / clockTicks, nil
}

// parseStatTicks sums utime and stime (fields 14 and 15) of a
// /proc/<pid>/stat line. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatTicks(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state), so utime is f[11] and stime f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("%d fields after the command, want ≥ 13", len(f))
	}
	var sum int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("cpu field %q: %w", s, err)
		}
		sum += v
	}
	return sum, nil
}

// peakRSSMiB returns a process's peak resident set size (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kib, err := parseStatusKiB(string(b), "VmHWM")
	if err != nil {
		return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
	}
	return float64(kib) / 1024, nil
}

// parseStatusKiB extracts a size field ("VmHWM:    1234 kB") of a
// /proc/<pid>/status file.
func parseStatusKiB(status, field string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, field+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed %s line %q", field, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("no %s line", field)
}

// rssSampler reads a process's VmRSS every rssEvery until stopped.
type rssSampler struct {
	pid     int
	quit    chan struct{}
	done    chan struct{}
	samples []float64 // MiB; written by the sampling goroutine until done
}

// rssEvery is the VmRSS sampling period.
const rssEvery = 20 * time.Millisecond

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{pid: pid, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				if b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
					if kib, err := parseStatusKiB(string(b), "VmRSS"); err == nil {
						s.samples = append(s.samples, float64(kib)/1024)
					}
				}
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the 90th percentile of the samples:
// the resident size the process stayed above for a tenth of the phase.
func (s *rssSampler) stop() float64 {
	close(s.quit)
	<-s.done
	return summarize(s.samples).P90
}

// cpuTimes is the machine-wide line of /proc/stat: the jiffies spent in
// each state, of which steal is the time the hypervisor ran something
// else while the guest's CPUs had work.
type cpuTimes struct{ total, steal int64 }

func readCPUTimes() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseCPUTimes(line)
}

// parseCPUTimes parses "cpu user nice system idle iowait irq softirq
// steal ..."; kernels without the steal column read steal 0.
func parseCPUTimes(line string) (cpuTimes, error) {
	f := strings.Fields(line)
	if len(f) < 5 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("malformed /proc/stat line %q", line)
	}
	var t cpuTimes
	for i, s := range f[1:min(len(f), 9)] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("/proc/stat field %q: %w", s, err)
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// stealPct is the share of CPU time stolen by the hypervisor between two
// readings.
func stealPct(a, b cpuTimes) float64 {
	return 100 * ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}
