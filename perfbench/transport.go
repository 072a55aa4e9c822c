package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"anonnet/internal/job"
	"anonnet/internal/service"
)

// jobView is the part of a job snapshot the benchmark checks. Result
// stays raw so that a resubmitted result can be compared byte for byte.
type jobView struct {
	ID        string          `json:"id"`
	Hash      string          `json:"hash"`
	State     string          `json:"state"`
	Error     string          `json:"error"`
	CacheHit  bool            `json:"cache_hit"`
	Result    json.RawMessage `json:"result"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started"`
	Finished  *time.Time      `json:"finished"`

	// received is when the response had fully arrived, before the client
	// decoded it.
	received time.Time
}

// transport is how a workload's clients reach the service: over HTTP to
// the daemon, or by direct calls in process for the traced run.
type transport interface {
	// submit posts one spec body (POST /v1/jobs).
	submit(ctx context.Context, body []byte) (status int, jv *jobView, err error)
	// batch posts a sweep body (POST /v1/batch) and returns the member
	// job IDs in request order.
	batch(ctx context.Context, body []byte) (status int, ids []string, err error)
	// wait blocks until the job's stream delivers its terminal line and
	// returns the terminal state.
	wait(ctx context.Context, id string) (state string, err error)
	// get fetches a job snapshot (GET /v1/jobs/{id}).
	get(ctx context.Context, id string) (*jobView, error)
}

// httpTransport talks to anonnetd. It times the submit and fetch round
// trips and counts response bytes for the per-layer anonnetd metrics.
type httpTransport struct {
	base   string
	client *http.Client

	mu        sync.Mutex
	submitMs  []float64
	getMs     []float64
	respBytes int64
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

func (h *httpTransport) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	h.mu.Lock()
	h.respBytes += int64(len(b))
	h.mu.Unlock()
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return resp.StatusCode, b, nil
}

func (h *httpTransport) timed(samples *[]float64, t0 time.Time) {
	ms := float64(time.Since(t0)) / 1e6
	h.mu.Lock()
	*samples = append(*samples, ms)
	h.mu.Unlock()
}

func (h *httpTransport) submit(ctx context.Context, body []byte) (int, *jobView, error) {
	t0 := time.Now()
	status, b, err := h.do(ctx, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return 0, nil, err
	}
	received := time.Now()
	h.timed(&h.submitMs, t0)
	if status/100 != 2 {
		return status, nil, fmt.Errorf("POST /v1/jobs: %d %s", status, bytes.TrimSpace(b))
	}
	jv := jobView{received: received}
	if err := json.Unmarshal(b, &jv); err != nil {
		return status, nil, fmt.Errorf("POST /v1/jobs: decoding response: %w", err)
	}
	return status, &jv, nil
}

func (h *httpTransport) batch(ctx context.Context, body []byte) (int, []string, error) {
	t0 := time.Now()
	status, b, err := h.do(ctx, http.MethodPost, "/v1/batch", body)
	if err != nil {
		return 0, nil, err
	}
	h.timed(&h.submitMs, t0)
	if status/100 != 2 {
		return status, nil, fmt.Errorf("POST /v1/batch: %d %s", status, bytes.TrimSpace(b))
	}
	var resp struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		return status, nil, fmt.Errorf("POST /v1/batch: decoding response: %w", err)
	}
	ids := make([]string, len(resp.Jobs))
	for i, j := range resp.Jobs {
		ids[i] = j.ID
	}
	return status, ids, nil
}

func (h *httpTransport) wait(ctx context.Context, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return "", err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("stream %s: %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var n int64
	for sc.Scan() {
		n += int64(len(sc.Bytes())) + 1
		var ev struct {
			State string `json:"state"`
			Done  bool   `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("stream %s: %w", id, err)
		}
		if ev.Done {
			h.mu.Lock()
			h.respBytes += n
			h.mu.Unlock()
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("stream %s: %w", id, err)
	}
	return "", fmt.Errorf("stream %s ended without a terminal line", id)
}

func (h *httpTransport) get(ctx context.Context, id string) (*jobView, error) {
	t0 := time.Now()
	status, b, err := h.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	h.timed(&h.getMs, t0)
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/jobs/%s: %d %s", id, status, bytes.TrimSpace(b))
	}
	var jv jobView
	if err := json.Unmarshal(b, &jv); err != nil {
		return nil, fmt.Errorf("GET /v1/jobs/%s: %w", id, err)
	}
	return &jv, nil
}

// inprocTransport drives a service.Service by direct calls, recording a
// span around each call into the job and service layers.
type inprocTransport struct {
	svc *service.Service
	tr  *tracer
}

// view renders a service snapshot like the daemon's JSON response; the
// result encoding is the job.result_encode span.
func (p *inprocTransport) view(ctx context.Context, j *service.Job) (*jobView, error) {
	jv := &jobView{ID: j.ID, Hash: j.Hash, State: string(j.State), Error: j.Error, CacheHit: j.CacheHit,
		Submitted: j.Submitted, Started: j.Started, Finished: j.Finished}
	if j.Result != nil {
		_, sp := p.tr.begin(ctx, "job.result_encode", j.ID)
		b, err := json.Marshal(j.Result)
		p.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("encoding result of %s: %w", j.ID, err)
		}
		jv.Result = b
	}
	jv.received = time.Now()
	return jv, nil
}

func (p *inprocTransport) submit(ctx context.Context, body []byte) (int, *jobView, error) {
	_, sp := p.tr.begin(ctx, "job.decode", "")
	spec, err := job.Decode(body)
	p.tr.end(sp)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	_, sp = p.tr.begin(ctx, "service.submit", "")
	j, err := p.svc.Submit(spec)
	p.tr.end(sp)
	if err != nil {
		return http.StatusServiceUnavailable, nil, err
	}
	status := http.StatusAccepted
	if j.State == service.StateDone {
		status = http.StatusOK
	}
	jv, err := p.view(ctx, j)
	return status, jv, err
}

// batchBody is the POST /v1/batch shape the sweep workload sends: a
// template crossed with a seed axis.
type batchBody struct {
	Template job.Spec `json:"template"`
	Grid     struct {
		Seeds []int64 `json:"seeds"`
	} `json:"grid"`
}

func (p *inprocTransport) batch(ctx context.Context, body []byte) (int, []string, error) {
	_, sp := p.tr.begin(ctx, "job.decode", "")
	var bb batchBody
	err := json.Unmarshal(body, &bb)
	p.tr.end(sp)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	specs := make([]job.Spec, len(bb.Grid.Seeds))
	for i, s := range bb.Grid.Seeds {
		specs[i] = bb.Template
		specs[i].Seed = s
	}
	_, sp = p.tr.begin(ctx, "service.submit_batch", "")
	b, err := p.svc.SubmitBatch(specs)
	p.tr.end(sp)
	if err != nil {
		return http.StatusServiceUnavailable, nil, err
	}
	ids := make([]string, len(b.Jobs))
	for i, j := range b.Jobs {
		ids[i] = j.ID
	}
	return http.StatusAccepted, ids, nil
}

func (p *inprocTransport) wait(ctx context.Context, id string) (string, error) {
	_, sp := p.tr.begin(ctx, "service.wait", id)
	defer p.tr.end(sp)
	ch, stop, err := p.svc.Watch(id)
	if err != nil {
		return "", err
	}
	defer stop()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				// The watch channel may drop the terminal event of a slow
				// subscriber; the snapshot has the outcome.
				j, err := p.svc.Get(id)
				if err != nil {
					return "", err
				}
				return string(j.State), nil
			}
			if ev.Done {
				p.intervals(sp, id)
				return string(ev.State), nil
			}
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// intervals records the job's queue wait and execution, taken from the
// service's own timestamps, as children of the wait span.
func (p *inprocTransport) intervals(parent int, id string) {
	if parent < 0 {
		return
	}
	j, err := p.svc.Get(id)
	if err != nil || j.Started == nil || j.Finished == nil {
		return
	}
	p.tr.interval(parent, "service.queue", id, j.Submitted, *j.Started)
	p.tr.interval(parent, "service.exec", id, *j.Started, *j.Finished)
}

func (p *inprocTransport) get(ctx context.Context, id string) (*jobView, error) {
	_, sp := p.tr.begin(ctx, "service.get", id)
	j, err := p.svc.Get(id)
	p.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return p.view(ctx, j)
}
