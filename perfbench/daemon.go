package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// progressEvery is passed as -every: above any job's round budget, so a
// client waiting on a stream receives only the terminal line and the
// daemon publishes no per-round progress.
const progressEvery = 10_000_000

// daemon is one running anonnetd child on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	dir    string // per-daemon scratch directory; holds the -data-dir when durable
	stderr *syncBuffer
	done   chan struct{}
}

// syncBuffer collects the child's stderr while it runs, so it can be
// printed when a workload fails.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// live tracks every started daemon so that any exit path — error, timeout,
// interrupt — can stop them all.
var live struct {
	mu sync.Mutex
	ds map[*daemon]bool
}

// freeAddr returns a loopback address whose port was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon execs bin on a free loopback port. A durable daemon gets a
// fresh -data-dir under tmpRoot.
func startDaemon(bin, tmpRoot string, durable bool) (*daemon, error) {
	dir, err := os.MkdirTemp(tmpRoot, "anonnetd-")
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	args := []string{"-addr", addr, "-every", strconv.Itoa(progressEvery), "-grace", "1s"}
	if durable {
		args = append(args, "-data-dir", dir+"/data")
	}
	d := &daemon{addr: addr, dir: dir, stderr: &syncBuffer{}, done: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = d.stderr
	d.cmd.Stderr = d.stderr
	// Should this process be killed outright, the kernel kills the child.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	live.mu.Lock()
	defer live.mu.Unlock()
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	if live.ds == nil {
		live.ds = make(map[*daemon]bool)
	}
	live.ds[d] = true
	go func() {
		_ = d.cmd.Wait() // the exit status of a killed child carries no news
		close(d.done)
	}()
	return d, nil
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// waitReady polls /v1/readyz until it answers 200.
func (d *daemon) waitReady(ctx context.Context, client *http.Client) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url("/v1/readyz"), nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("anonnetd exited before it was ready")
		case <-ctx.Done():
			return fmt.Errorf("waiting for /v1/readyz: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop kills the child, waits until it has exited, and removes its
// directory. It is idempotent.
func (d *daemon) stop() {
	live.mu.Lock()
	if !live.ds[d] {
		live.mu.Unlock()
		return
	}
	delete(live.ds, d)
	live.mu.Unlock()
	_ = d.cmd.Process.Kill() // fails only if the child already exited
	<-d.done
	os.RemoveAll(d.dir)
}

// stopAll stops every daemon still running.
func stopAll() {
	live.mu.Lock()
	ds := make([]*daemon, 0, len(live.ds))
	for d := range live.ds {
		ds = append(ds, d)
	}
	live.mu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}
