// Package service is the heart of anonnetd: a bounded job queue feeding a
// worker pool that executes validated job.Specs through the round engines,
// with per-job deadlines and cancellation, an LRU result cache keyed by
// the canonical spec hash, round-by-round progress subscriptions, and
// expvar-mirrored counters. The service is embeddable: cmd/anonnetd wraps
// it in an HTTP API, tests drive it directly.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anonnet/internal/engine"
	"anonnet/internal/job"
	"anonnet/internal/metrics"
	"anonnet/internal/model"
	"anonnet/internal/store"
	"anonnet/internal/topology"
)

// Service errors.
var (
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("service: closed")
	// ErrQueueFull is returned by Submit when the bounded queue is at
	// capacity — the caller should retry later (HTTP 429 and 503
	// territory).
	ErrQueueFull = errors.New("service: queue full")
	// ErrNotFound is returned for unknown job IDs.
	ErrNotFound = errors.New("service: no such job")
	// ErrEmptyBatch is returned by SubmitBatch for a batch with no specs.
	ErrEmptyBatch = errors.New("service: empty batch")
	// ErrBatchTooLarge is returned by SubmitBatch for a batch over
	// MaxBatchSize specs.
	ErrBatchTooLarge = errors.New("service: batch too large")
	// ErrTransient marks a runner failure as retryable: a runner error
	// wrapping ErrTransient is re-executed up to MaxRetries times with
	// exponential backoff before the job is declared failed. The built-in
	// job.Run never returns it; injected runners (remote backends, tests)
	// use it to signal "try again".
	ErrTransient = errors.New("service: transient error")
)

// MaxBatchSize bounds the number of specs in one SubmitBatch call — a
// batch must not be able to claim the whole default queue.
const MaxBatchSize = 64

// Config tunes a Service. The zero value selects sensible defaults.
type Config struct {
	// Workers is the pool size (default runtime.GOMAXPROCS(0)).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (default 64).
	QueueDepth int
	// CacheSize is the LRU result-cache capacity in entries (default 128;
	// negative disables caching).
	CacheSize int
	// JobTimeout is the per-job deadline (default 2m; negative disables).
	JobTimeout time.Duration
	// ProgressEvery publishes a progress event every k rounds (default 1:
	// every round).
	ProgressEvery int
	// Runner executes one compiled job (default job.Run). Injection point
	// for tests and alternative backends; a Runner that panics is recovered
	// into a failed job, never a dead worker.
	Runner func(ctx context.Context, c *job.Compiled, obs engine.Observer) (*job.Result, error)
	// MaxRetries bounds re-executions of a job whose runner failed with an
	// error wrapping ErrTransient (default 2; negative disables retries).
	MaxRetries int
	// RetryBase is the backoff before the first retry, doubling on each
	// subsequent one (default 50ms).
	RetryBase time.Duration
	// Store, when non-nil, makes the service durable: every job state
	// transition is appended to the log, done results are served from disk
	// on LRU misses, running jobs checkpoint their engine state, and
	// Recover re-enqueues non-terminal jobs after a restart.
	Store *store.Store
	// CheckpointEvery snapshots a running job's engine every k rounds
	// (default 50 when Store is set; meaningless without one). Shutdown
	// flushes a final checkpoint regardless.
	CheckpointEvery int
	// JobLatency, when non-nil, observes each finished job's wall-clock
	// seconds (the /metrics latency histogram).
	JobLatency *metrics.Histogram
	// BreakerThreshold trips the store circuit breaker after this many
	// consecutive failed persists (default 5; negative disables the
	// breaker). While tripped the service runs degraded: jobs still
	// execute and results serve from memory, but log appends are dropped
	// and their jobs marked dirty for a backfill flush once a half-open
	// probe succeeds.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker waits before letting
	// one append through as a half-open probe (default 3s).
	BreakerCooldown time.Duration
	// Intercept, when non-nil, runs before every job attempt (including
	// retries) with the job ID and zero-based attempt number. A returned
	// error fails the attempt — wrapping ErrTransient makes it retryable —
	// and a panic is recovered like a runner panic. Injection point for
	// the chaos layer's worker failpoints.
	Intercept func(ctx context.Context, jobID string, attempt int) error
	// TopoCacheBytes bounds the shared topology-snapshot cache in bytes
	// (0 selects topology.DefaultCacheBytes; negative disables cross-job
	// snapshot sharing). Jobs whose specs share a graph fingerprint —
	// same builder, dimensions, model kind, and seed when the builder is
	// seeded — compile against one refcounted immutable snapshot instead
	// of each building their own.
	TopoCacheBytes int64
	// NoDedup disables single-flight spec deduplication. By default a
	// spec submitted while an identical one (same canonical hash) is
	// queued or running attaches to it as a follower: one execution,
	// shared result/stream/terminal state, no duplicate queue slot.
	NoDedup bool

	// runnerInjected records whether Runner came from the caller: the
	// checkpointed execution path only replaces the built-in job.Run,
	// never an injected runner.
	runnerInjected bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 1
	}
	c.runnerInjected = c.Runner != nil
	if c.Runner == nil {
		c.Runner = job.Run
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 50
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerThreshold < 0 {
		c.BreakerThreshold = 0 // disabled
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 3 * time.Second
	}
	return c
}

// State is a job's lifecycle state.
type State string

// The job lifecycle: queued → running → done | failed | canceled, with
// queued → canceled possible before a worker picks the job up, and
// cache-served jobs born done. A durable service adds running →
// interrupted at graceful shutdown: the engine state is flushed to a
// checkpoint and the job resumes (as queued) on the next boot.
const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateInterrupted State = "interrupted"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCanceled    State = "canceled"
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is a client-facing snapshot of one job.
type Job struct {
	ID       string   `json:"id"`
	Hash     string   `json:"hash"`
	Spec     job.Spec `json:"spec"`
	State    State    `json:"state"`
	Error    string   `json:"error,omitempty"`
	CacheHit bool     `json:"cache_hit,omitempty"`
	// DedupOf names the leader job whose execution this job rides as a
	// single-flight follower.
	DedupOf string `json:"dedup_of,omitempty"`
	// Result is set when State is done.
	Result    *job.Result `json:"result,omitempty"`
	Submitted time.Time   `json:"submitted"`
	Started   *time.Time  `json:"started,omitempty"`
	Finished  *time.Time  `json:"finished,omitempty"`
}

// Progress is one event on a job's watch stream: a round-by-round sample
// while running, then exactly one terminal event (Done=true).
type Progress struct {
	JobID   string    `json:"job_id"`
	State   State     `json:"state"`
	Round   int       `json:"round,omitempty"`
	Outputs []job.F64 `json:"outputs,omitempty"`
	MaxErr  job.F64   `json:"max_err"`
	Done    bool      `json:"done,omitempty"`
	Error   string    `json:"error,omitempty"`
}

// entry is the service-internal job record. All fields after the
// immutable header are guarded by Service.mu.
type entry struct {
	id       string
	hash     string
	compiled *job.Compiled

	state     State
	err       string
	cacheHit  bool
	result    *job.Result
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc // non-nil exactly while running
	canceled  bool               // cancellation requested while queued
	flush     chan struct{}      // non-nil while running durably: shutdown's flush request
	ckptRound int                // last checkpointed round (durable path)
	recovered bool               // re-enqueued from the store at boot
	subs      map[chan Progress]struct{}

	// Single-flight dedup links. A follower (leader != nil) shares its
	// leader's execution: no queue slot, mirrored state, shared result.
	// A detached leader (detached set) was canceled by its own client
	// while followers remained attached — the execution keeps running on
	// their behalf and the result settles on them alone.
	leader    *entry
	followers []*entry
	detached  bool
}

// Stats is a snapshot of the service counters (mirrored to expvar under
// the "anonnetd" map for /debug/vars).
type Stats struct {
	Submitted       int64 `json:"submitted"`
	Completed       int64 `json:"completed"`
	Failed          int64 `json:"failed"`
	Canceled        int64 `json:"canceled"`
	CacheHits       int64 `json:"cache_hits"`
	RoundsSimulated int64 `json:"rounds_simulated"`
	PanicsRecovered int64 `json:"panics_recovered"`
	Retries         int64 `json:"retries"`
	// Recovered counts jobs re-enqueued from the durable store at boot;
	// Interrupted counts running jobs flushed to checkpoints at shutdown.
	Recovered   int64 `json:"recovered"`
	Interrupted int64 `json:"interrupted"`
	// StoreErrors counts durable-store append failures (the service keeps
	// serving from memory when the disk misbehaves); SyncFailures is the
	// subset that lost only durability, not data (store.ErrSyncFailed).
	StoreErrors  int64 `json:"store_errors"`
	SyncFailures int64 `json:"sync_failures"`
	// BreakerTrips counts closed→open transitions of the store circuit
	// breaker; DegradedDropped counts appends dropped while it was open;
	// Backfilled counts dirty jobs re-persisted after recovery; Degraded
	// reports whether the breaker is open right now.
	BreakerTrips    int64 `json:"breaker_trips"`
	DegradedDropped int64 `json:"degraded_dropped"`
	Backfilled      int64 `json:"backfilled"`
	Degraded        bool  `json:"degraded"`
	// Sweep fast path: the shared topology-snapshot cache and the
	// single-flight dedup and affinity layers above it.
	TopoCacheHits      int64 `json:"topo_cache_hits"`
	TopoCacheMisses    int64 `json:"topo_cache_misses"`
	TopoCacheCoalesced int64 `json:"topo_cache_coalesced"`
	TopoCacheEvictions int64 `json:"topo_cache_evictions"`
	TopoCacheBytes     int64 `json:"topo_cache_bytes"`
	TopoCacheEntries   int   `json:"topo_cache_entries"`
	DedupCoalesced     int64 `json:"dedup_coalesced"`
	AffinityHits       int64 `json:"affinity_hits"`
	AffinityMisses     int64 `json:"affinity_misses"`
	Queued             int   `json:"queued"`
	Running            int   `json:"running"`
	CacheEntries       int   `json:"cache_entries"`
	Workers            int   `json:"workers"`
}

// Service is the concurrent simulation service.
type Service struct {
	cfg Config

	// topo is the process-wide shared topology-snapshot cache handed to
	// every compile; nil when Config.TopoCacheBytes is negative.
	topo *topology.Cache

	mu        sync.Mutex
	jobs      map[string]*entry
	order     []string
	batches   map[string][]string
	cache     *lru
	inflight  map[string]*entry // canonical hash → dedup leader (queued or running)
	closed    bool
	shutdown  bool // graceful shutdown: queued jobs stay queued for the next boot
	nextID    int64
	nextBatch int64

	// Store circuit breaker (mu-guarded: persist always runs under mu).
	// After BreakerThreshold consecutive failed persists the breaker opens
	// and the service degrades to in-memory operation; after the cooldown
	// one append goes through as a half-open probe, and on probe success
	// the dirty set is backfilled into the log.
	consecFails     int
	breakerOpen     bool
	breakerOpenedAt time.Time
	dirty           map[string]bool // job IDs with un-persisted transitions

	queue chan *entry
	wg    sync.WaitGroup

	submitted    atomic.Int64
	completed    atomic.Int64
	failed       atomic.Int64
	canceled     atomic.Int64
	cacheHits    atomic.Int64
	rounds       atomic.Int64
	running      atomic.Int64
	panics       atomic.Int64
	retries      atomic.Int64
	recovered    atomic.Int64
	interrupted  atomic.Int64
	storeErrs    atomic.Int64
	syncFails    atomic.Int64
	breakerTrips atomic.Int64
	degradedDrop atomic.Int64
	backfilled   atomic.Int64
	workersAlive atomic.Int64

	dedupCoalesced atomic.Int64
	affinityHits   atomic.Int64
	affinityMisses atomic.Int64
}

// Global expvar mirror: one "anonnetd" map shared by every Service in the
// process (expvar registration is global and must happen once).
var (
	expOnce                                                                            sync.Once
	expSubmitted, expCompleted, expFailed, expCanceled, expHits, expRounds, expRunning *expvar.Int
	expPanics, expRetries, expRecovered, expInterrupted                                *expvar.Int
)

func publishExpvars() {
	expOnce.Do(func() {
		m := expvar.NewMap("anonnetd")
		reg := func(name string) *expvar.Int {
			v := new(expvar.Int)
			m.Set(name, v)
			return v
		}
		expSubmitted = reg("jobs_submitted")
		expCompleted = reg("jobs_completed")
		expFailed = reg("jobs_failed")
		expCanceled = reg("jobs_canceled")
		expHits = reg("cache_hits")
		expRounds = reg("rounds_simulated")
		expRunning = reg("jobs_running")
		expPanics = reg("panics_recovered")
		expRetries = reg("retries")
		expRecovered = reg("jobs_recovered")
		expInterrupted = reg("jobs_interrupted")
	})
}

// New starts a Service with cfg's worker pool. Callers must Close it.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	publishExpvars()
	s := &Service{
		cfg:      cfg,
		jobs:     make(map[string]*entry),
		batches:  make(map[string][]string),
		cache:    newLRU(cfg.CacheSize),
		inflight: make(map[string]*entry),
		queue:    make(chan *entry, cfg.QueueDepth),
		dirty:    make(map[string]bool),
	}
	if cfg.TopoCacheBytes >= 0 {
		s.topo = topology.NewCache(cfg.TopoCacheBytes)
	}
	if cfg.Store != nil {
		// Continue the persisted ID sequence so recovered and new jobs
		// never collide.
		s.nextID = cfg.Store.MaxJobSeq()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		s.workersAlive.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates and enqueues spec. When an identical computation (same
// canonical hash) has a cached result, the job is born done with
// CacheHit set and no work is queued. Returns the job snapshot.
func (s *Service) Submit(spec job.Spec) (*Job, error) {
	compiled, err := job.CompileWithCache(spec, s.topo)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		compiled.ReleaseTopo()
		return nil, ErrClosed
	}
	e, err := s.submitLocked(compiled)
	if err != nil {
		return nil, err
	}
	return snapshot(e), nil
}

// submitLocked registers one compiled job: cache-served jobs are born
// done, a job identical to one already queued or running attaches to it
// as a dedup follower, and everything else is pushed onto the bounded
// queue (ErrQueueFull when at capacity). Callers hold s.mu.
func (s *Service) submitLocked(compiled *job.Compiled) (*entry, error) {
	s.nextID++
	e := &entry{
		id:        fmt.Sprintf("j%06d", s.nextID),
		hash:      compiled.Hash,
		compiled:  compiled,
		state:     StateQueued,
		submitted: time.Now(),
		subs:      make(map[chan Progress]struct{}),
	}
	if res, ok := s.resultForHash(e.hash); ok {
		compiled.ReleaseTopo()
		retire(e)
		e.state = StateDone
		e.result = res
		e.cacheHit = true
		e.finished = time.Now()
		s.jobs[e.id] = e
		s.order = append(s.order, e.id)
		s.submitted.Add(1)
		expSubmitted.Add(1)
		s.cacheHits.Add(1)
		expHits.Add(1)
		return e, nil
	}
	if !s.cfg.NoDedup {
		if lead, ok := s.inflight[e.hash]; ok {
			// Single-flight: an identical computation is already in
			// flight — ride it instead of enqueueing a duplicate. The
			// follower keeps its own job ID, watch stream, and cancel
			// button; the result and terminal state arrive from the
			// leader's one execution.
			compiled.ReleaseTopo()
			e.leader = lead
			e.state = lead.state
			e.started = lead.started
			lead.followers = append(lead.followers, e)
			s.jobs[e.id] = e
			s.order = append(s.order, e.id)
			s.submitted.Add(1)
			expSubmitted.Add(1)
			s.dedupCoalesced.Add(1)
			if s.cfg.Store != nil {
				spec, err := json.Marshal(compiled.Spec)
				if err != nil {
					spec = nil
				}
				// The follower's own log trail: queued (with its spec, so
				// a crash recovers it as an independent job), then its
				// mirrored states. Its terminal record never carries the
				// result payload — that is persisted once, by the leader.
				s.persist(store.Record{JobID: e.id, Hash: e.hash, State: store.StateQueued, Spec: spec})
				if e.state == StateRunning {
					s.persist(store.Record{JobID: e.id, Hash: e.hash, State: store.StateRunning})
				}
			}
			return e, nil
		}
	}
	select {
	case s.queue <- e:
	default:
		s.nextID--
		compiled.ReleaseTopo()
		return nil, ErrQueueFull
	}
	s.jobs[e.id] = e
	s.order = append(s.order, e.id)
	s.submitted.Add(1)
	expSubmitted.Add(1)
	if !s.cfg.NoDedup {
		s.inflight[e.hash] = e
	}
	if s.cfg.Store != nil {
		spec, err := json.Marshal(compiled.Spec)
		if err != nil {
			spec = nil // canonical specs always marshal; belt and braces
		}
		s.persist(store.Record{JobID: e.id, Hash: e.hash, State: store.StateQueued, Spec: spec})
	}
	return e, nil
}

// dropInflightLocked removes e from the dedup index if it is still the
// registered leader for its hash. Callers hold s.mu.
func (s *Service) dropInflightLocked(e *entry) {
	if s.inflight[e.hash] == e {
		delete(s.inflight, e.hash)
	}
}

// resultForHash consults the two result tiers: the in-memory LRU, then
// the durable store. A disk hit is promoted into the LRU. Callers hold
// s.mu.
func (s *Service) resultForHash(hash string) (*job.Result, bool) {
	if res, ok := s.cache.get(hash); ok {
		return res, true
	}
	if s.cfg.Store == nil {
		return nil, false
	}
	raw, ok := s.cfg.Store.ResultByHash(hash)
	if !ok {
		return nil, false
	}
	var res job.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, false
	}
	s.cache.add(hash, &res)
	return &res, true
}

// persist appends one record to the durable store. Append failures (disk
// full, store closed during shutdown races) are counted, not fatal: the
// service keeps serving from memory. Failures also feed the circuit
// breaker — once it opens, appends are dropped outright (the job is
// remembered as dirty) until a half-open probe lands, at which point the
// dirty set is backfilled. Callers hold s.mu, which is what makes the
// breaker fields plain fields.
func (s *Service) persist(rec store.Record) {
	if s.cfg.Store == nil {
		return
	}
	rec.Unix = time.Now().UnixNano()
	if s.degradedLocked() {
		s.degradedDrop.Add(1)
		s.dirty[rec.JobID] = true
		return
	}
	if err := s.cfg.Store.Append(rec); err != nil {
		if lost := s.noteStoreFailureLocked(err); lost {
			s.dirty[rec.JobID] = true
		}
		return
	}
	s.noteStoreSuccessLocked()
}

// degradedLocked reports whether the breaker is open and still inside its
// cooldown — the window in which persists are dropped rather than
// attempted. Once the cooldown elapses the next persist goes through as
// the half-open probe. Callers hold s.mu.
func (s *Service) degradedLocked() bool {
	return s.breakerOpen && time.Since(s.breakerOpenedAt) < s.cfg.BreakerCooldown
}

// noteStoreSuccessLocked records a successful append: the failure streak
// resets, a half-open probe closes the breaker, and any dirty backlog —
// from a degraded stretch or from sporadic failures that never tripped —
// is flushed. Callers hold s.mu.
func (s *Service) noteStoreSuccessLocked() {
	s.consecFails = 0
	s.breakerOpen = false
	if len(s.dirty) > 0 {
		s.backfillLocked()
	}
}

// noteStoreFailureLocked counts one failed store operation and advances
// the breaker state machine. The return value reports whether record data
// was actually lost: a store.ErrSyncFailed append reached the file and
// will replay after a crash (lost durability only), so its job does not
// need a backfill. Callers hold s.mu.
func (s *Service) noteStoreFailureLocked(err error) (lost bool) {
	s.storeErrs.Add(1)
	lost = true
	if errors.Is(err, store.ErrSyncFailed) {
		s.syncFails.Add(1)
		lost = false
	}
	s.consecFails++
	switch {
	case s.breakerOpen:
		// Failed half-open probe: stay open and restart the cooldown.
		s.breakerOpenedAt = time.Now()
	case s.cfg.BreakerThreshold > 0 && s.consecFails >= s.cfg.BreakerThreshold:
		s.breakerOpen = true
		s.breakerOpenedAt = time.Now()
		s.breakerTrips.Add(1)
	}
	return lost
}

// backfillLocked re-persists the current state of every dirty job after
// the breaker closes: one append per job carrying its spec, latest state,
// and (when terminal) result or error, so a log that went dark mid-flight
// still converges to the truth the memory view holds. A failure mid-flush
// re-opens the breaker and leaves the remainder dirty for the next probe.
// Callers hold s.mu.
func (s *Service) backfillLocked() {
	for id := range s.dirty {
		e, ok := s.jobs[id]
		if !ok {
			delete(s.dirty, id)
			continue
		}
		rec := store.Record{JobID: e.id, Hash: e.hash, State: string(e.state),
			Error: e.err, Unix: time.Now().UnixNano()}
		if spec, err := json.Marshal(e.compiled.Spec); err == nil {
			rec.Spec = spec
		}
		if e.state == StateDone && e.result != nil {
			if raw, err := json.Marshal(e.result); err == nil {
				rec.Result = raw
			}
		}
		if err := s.cfg.Store.Append(rec); err != nil {
			if lost := s.noteStoreFailureLocked(err); lost {
				// The disk proved unhealthy again mid-recovery: re-open
				// immediately rather than rebuilding a failure streak while
				// more records go missing. id stays dirty for the next probe.
				if !s.breakerOpen {
					s.breakerOpen = true
					s.breakerOpenedAt = time.Now()
					s.breakerTrips.Add(1)
				}
				return
			}
			// Sync-only failure: the record is in the log, keep flushing.
		}
		delete(s.dirty, id)
		s.backfilled.Add(1)
	}
}

// durable reports whether jobs run through the checkpointed executor:
// a store is configured and the runner is the built-in job.Run (an
// injected runner owns its own execution and cannot checkpoint).
func (s *Service) durable() bool {
	return s.cfg.Store != nil && !s.cfg.runnerInjected
}

// Recover re-enqueues every non-terminal job found in the durable store —
// the boot step after a crash or graceful shutdown. Jobs keep their
// original IDs; those with an on-disk checkpoint resume mid-run from it.
// Specs that no longer compile are marked failed in the log rather than
// wedging recovery. Returns the number of jobs re-enqueued.
func (s *Service) Recover() (int, error) {
	if s.cfg.Store == nil {
		return 0, nil
	}
	pending := s.cfg.Store.Pending()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	n := 0
	for _, v := range pending {
		if _, exists := s.jobs[v.ID]; exists {
			continue
		}
		var spec job.Spec
		err := json.Unmarshal(v.Spec, &spec)
		var compiled *job.Compiled
		if err == nil {
			compiled, err = job.CompileWithCache(spec, s.topo)
		}
		if err != nil {
			s.persist(store.Record{JobID: v.ID, Hash: v.Hash, State: store.StateFailed,
				Error: fmt.Sprintf("recovery: %v", err)})
			continue
		}
		e := &entry{
			id:        v.ID,
			hash:      compiled.Hash,
			compiled:  compiled,
			state:     StateQueued,
			submitted: time.Now(),
			recovered: true,
			subs:      make(map[chan Progress]struct{}),
		}
		// Recovery never registers dedup leaders and never attaches
		// followers: each persisted job resumes as an independent
		// execution (identical ones converge through the result cache).
		select {
		case s.queue <- e:
		default:
			compiled.ReleaseTopo()
			return n, fmt.Errorf("%w: %d jobs recovered, %s and later still pending", ErrQueueFull, n, v.ID)
		}
		s.jobs[e.id] = e
		s.order = append(s.order, e.id)
		s.submitted.Add(1)
		expSubmitted.Add(1)
		s.recovered.Add(1)
		expRecovered.Add(1)
		s.persist(store.Record{JobID: e.id, Hash: e.hash, State: store.StateQueued})
		n++
	}
	return n, nil
}

// Batch is a client-facing snapshot of one batch submission: the member
// jobs in submission order plus aggregate progress.
type Batch struct {
	ID   string `json:"id"`
	Jobs []*Job `json:"jobs"`
	// Done counts member jobs in a terminal state; the batch is finished
	// when Done == len(Jobs).
	Done int `json:"done"`
	// Failed counts member jobs that failed or were canceled.
	Failed int `json:"failed"`
	// CacheHits counts member jobs served from the result cache.
	CacheHits int `json:"cache_hits"`
	// Deduped counts member jobs riding another job's execution as
	// single-flight followers.
	Deduped int `json:"deduped,omitempty"`
}

// SubmitBatch validates and enqueues a parameter sweep as one batch,
// all-or-nothing: if any spec fails validation, or the queue lacks room
// for every job that is not a cache hit or a dedup follower, nothing is
// enqueued. Jobs sharing a graph fingerprint are enqueued contiguously so
// workers run them back to back against a warm topology snapshot; the
// client-visible member order (Batch.Jobs, GetBatch) stays the submission
// order. The member jobs are ordinary jobs (Get/Cancel/Watch work on them
// individually); GetBatch aggregates them.
func (s *Service) SubmitBatch(specs []job.Spec) (*Batch, error) {
	if len(specs) == 0 {
		return nil, ErrEmptyBatch
	}
	if len(specs) > MaxBatchSize {
		return nil, fmt.Errorf("%w: %d specs, ceiling is %d", ErrBatchTooLarge, len(specs), MaxBatchSize)
	}
	compiled := make([]*job.Compiled, len(specs))
	release := func(from int) {
		for i := from; i < len(compiled); i++ {
			if compiled[i] != nil {
				compiled[i].ReleaseTopo()
			}
		}
	}
	for i, sp := range specs {
		c, err := job.CompileWithCache(sp, s.topo)
		if err != nil {
			release(0)
			return nil, fmt.Errorf("specs[%d]: %w", i, err)
		}
		compiled[i] = c
	}
	shareValues(compiled)
	// Affinity grouping: enqueue in fingerprint order (stable, so
	// same-graph jobs keep their relative submission order).
	enq := make([]int, len(compiled))
	for i := range enq {
		enq[i] = i
	}
	sort.SliceStable(enq, func(a, b int) bool {
		return compiled[enq[a]].Fingerprint < compiled[enq[b]].Fingerprint
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		release(0)
		return nil, ErrClosed
	}
	// Capacity pre-check makes the enqueue loop infallible: count the jobs
	// that will actually need a queue slot. Cache hits are born done, and
	// dedup followers — of an in-flight leader or of an earlier member of
	// this very batch — attach without a slot.
	need := 0
	seen := make(map[string]bool)
	for _, c := range compiled {
		if _, ok := s.resultForHash(c.Hash); ok {
			continue
		}
		if !s.cfg.NoDedup {
			if _, infl := s.inflight[c.Hash]; infl || seen[c.Hash] {
				continue
			}
			seen[c.Hash] = true
		}
		need++
	}
	if need > cap(s.queue)-len(s.queue) {
		release(0)
		return nil, ErrQueueFull
	}
	s.nextBatch++
	bid := fmt.Sprintf("b%04d", s.nextBatch)
	ids := make([]string, len(compiled))
	for k, i := range enq {
		e, err := s.submitLocked(compiled[i])
		if err != nil {
			// Unreachable given the pre-check; surface it rather than
			// leaving a half-registered batch silently.
			for _, j := range enq[k:] {
				compiled[j].ReleaseTopo()
			}
			return nil, fmt.Errorf("batch %s: %w", bid, err)
		}
		ids[i] = e.id
	}
	s.batches[bid] = ids
	return s.batchLocked(bid, ids), nil
}

// shareValues points each batch member's canonical Values at the previous
// member's slice when the two are bit-identical, so a template×seeds
// sweep retains one values vector instead of one per member. Sharing is
// safe because nothing writes Spec.Values once Spec.Canonical has built
// it: Compile only reads it (into Inputs and Expected), and the service
// only marshals it.
func shareValues(compiled []*job.Compiled) {
	for i := 1; i < len(compiled); i++ {
		prev, cur := compiled[i-1].Spec.Values, compiled[i].Spec.Values
		if slices.EqualFunc(prev, cur, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			compiled[i].Spec.Values = prev
		}
	}
}

// GetBatch returns an aggregate snapshot of batch id.
func (s *Service) GetBatch(id string) (*Batch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids, ok := s.batches[id]
	if !ok {
		return nil, ErrNotFound
	}
	return s.batchLocked(id, ids), nil
}

// batchLocked renders a batch snapshot. Callers hold s.mu.
func (s *Service) batchLocked(id string, ids []string) *Batch {
	b := &Batch{ID: id, Jobs: make([]*Job, 0, len(ids))}
	for _, jid := range ids {
		e := s.jobs[jid]
		b.Jobs = append(b.Jobs, snapshot(e))
		if e.state.Terminal() {
			b.Done++
		}
		if e.state == StateFailed || e.state == StateCanceled {
			b.Failed++
		}
		if e.cacheHit {
			b.CacheHits++
		}
		if e.leader != nil {
			b.Deduped++
		}
	}
	return b
}

// Get returns a snapshot of job id.
func (s *Service) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return snapshot(e), nil
}

// List returns snapshots of every job in submission order.
func (s *Service) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, snapshot(s.jobs[id]))
	}
	return out
}

// Cancel requests cancellation of job id: a queued job is marked canceled
// and will be skipped by the pool; a running job has its context
// canceled, aborting at the next round boundary. Canceling a terminal job
// is a no-op.
func (s *Service) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	s.cancelLocked(e)
	return snapshot(e), nil
}

// cancelLocked cancels one job: a queued job turns terminal immediately
// (the pool will skip it), a running job gets its context canceled. Dedup
// changes who the cancel reaches: canceling a follower detaches only that
// follower, and canceling a leader with followers attached cancels only
// the leader's own view — the shared execution is stopped when its last
// interested member detaches. Callers hold s.mu.
func (s *Service) cancelLocked(e *entry) {
	if e.leader != nil {
		s.cancelFollowerLocked(e)
		return
	}
	if e.detached {
		return // this client's view already ended canceled
	}
	if len(e.followers) > 0 && (e.state == StateQueued || e.state == StateRunning) {
		// Detach the leader: its client sees a canceled job, but the
		// followers still want the result, so the execution keeps going
		// and settles on them alone. New identical submissions no longer
		// attach here.
		e.detached = true
		s.dropInflightLocked(e)
		e.state = StateCanceled
		e.finished = time.Now()
		s.canceled.Add(1)
		expCanceled.Add(1)
		s.persist(store.Record{JobID: e.id, Hash: e.hash, State: store.StateCanceled})
		s.finishLocked(e)
		return
	}
	switch e.state {
	case StateQueued:
		e.canceled = true
		e.state = StateCanceled
		e.finished = time.Now()
		s.canceled.Add(1)
		expCanceled.Add(1)
		s.dropInflightLocked(e)
		s.persist(store.Record{JobID: e.id, Hash: e.hash, State: store.StateCanceled})
		s.finishLocked(e)
	case StateRunning:
		s.dropInflightLocked(e)
		if e.cancel != nil {
			e.cancel()
		}
	}
}

// cancelFollowerLocked detaches one follower from its leader's execution:
// the follower turns terminal-canceled on the spot, and if it was the
// last member still interested — the leader itself having detached
// earlier — the now-orphaned execution is stopped too. Callers hold s.mu.
func (s *Service) cancelFollowerLocked(f *entry) {
	if f.state.Terminal() {
		return
	}
	lead := f.leader
	f.state = StateCanceled
	f.finished = time.Now()
	s.canceled.Add(1)
	expCanceled.Add(1)
	s.persist(store.Record{JobID: f.id, Hash: f.hash, State: store.StateCanceled})
	s.finishLocked(f)
	retire(f) // a follower never runs; its pin was released on attach
	for i, g := range lead.followers {
		if g == f {
			lead.followers = append(lead.followers[:i], lead.followers[i+1:]...)
			break
		}
	}
	if lead.detached && len(lead.followers) == 0 {
		if lead.cancel != nil {
			lead.cancel()
		} else {
			lead.canceled = true // still queued; the pool will skip it
		}
	}
}

// CancelAll cancels every queued and running job (forced-shutdown path)
// and reports how many jobs it touched.
func (s *Service) CancelAll() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.jobs {
		if e.state == StateQueued || e.state == StateRunning {
			s.cancelLocked(e)
			n++
		}
	}
	return n
}

// Watch subscribes to job id's progress stream. The returned channel
// carries round-by-round Progress events and is closed after the terminal
// event. The returned stop function detaches the subscription (safe to
// call at any time, including after the channel closed). A terminal job
// yields its terminal event immediately.
func (s *Service) Watch(id string) (<-chan Progress, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch := make(chan Progress, 64)
	if e.state.Terminal() {
		ch <- terminalEvent(e)
		close(ch)
		return ch, func() {}, nil
	}
	e.subs[ch] = struct{}{}
	stop := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, still := e.subs[ch]; still {
			delete(e.subs, ch)
			close(ch)
		}
	}
	return ch, stop, nil
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	cacheLen := s.cache.len()
	queued := len(s.queue)
	degraded := s.breakerOpen
	s.mu.Unlock()
	st := Stats{
		SyncFailures:    s.syncFails.Load(),
		BreakerTrips:    s.breakerTrips.Load(),
		DegradedDropped: s.degradedDrop.Load(),
		Backfilled:      s.backfilled.Load(),
		Degraded:        degraded,
		Submitted:       s.submitted.Load(),
		Completed:       s.completed.Load(),
		Failed:          s.failed.Load(),
		Canceled:        s.canceled.Load(),
		CacheHits:       s.cacheHits.Load(),
		RoundsSimulated: s.rounds.Load(),
		PanicsRecovered: s.panics.Load(),
		Retries:         s.retries.Load(),
		Recovered:       s.recovered.Load(),
		Interrupted:     s.interrupted.Load(),
		StoreErrors:     s.storeErrs.Load(),
		Queued:          queued,
		Running:         int(s.running.Load()),
		CacheEntries:    cacheLen,
		Workers:         s.cfg.Workers,
		DedupCoalesced:  s.dedupCoalesced.Load(),
		AffinityHits:    s.affinityHits.Load(),
		AffinityMisses:  s.affinityMisses.Load(),
	}
	if s.topo != nil {
		ts := s.topo.Stats()
		st.TopoCacheHits = ts.Hits
		st.TopoCacheMisses = ts.Misses
		st.TopoCacheCoalesced = ts.InflightCoalesced
		st.TopoCacheEvictions = ts.Evictions
		st.TopoCacheBytes = ts.ResidentBytes
		st.TopoCacheEntries = ts.Entries
	}
	return st
}

// TopologyCache exposes the shared snapshot cache (nil when disabled) —
// the benchmark harness and tests assert build counts through it.
func (s *Service) TopologyCache() *topology.Cache { return s.topo }

// Readiness is a point-in-time health verdict for load balancers and
// probes: Ready means a Submit issued now would be accepted and a worker
// will eventually pick it up.
type Readiness struct {
	Ready bool `json:"ready"`
	// Reason explains a not-ready verdict ("closed", "no live workers",
	// "queue full").
	Reason string `json:"reason,omitempty"`
	// Degraded reports an open store circuit breaker: the service still
	// accepts and runs jobs (Ready stays true), but durability is
	// suspended — results serve from memory and log appends wait for the
	// breaker to close and backfill. Operators alert on it; load balancers
	// need not drain on it.
	Degraded bool `json:"degraded,omitempty"`
	// Queued and QueueDepth report queue saturation; clients seeing
	// Queued near QueueDepth should back off before Submit fails.
	Queued     int `json:"queued"`
	QueueDepth int `json:"queue_depth"`
	Running    int `json:"running"`
	// Workers counts live pool goroutines (panic recovery keeps this at
	// the configured pool size; 0 means the pool is gone).
	Workers int `json:"workers"`
}

// Readiness reports whether the service can accept work right now.
func (s *Service) Readiness() Readiness {
	s.mu.Lock()
	closed := s.closed
	queued := len(s.queue)
	degraded := s.breakerOpen
	s.mu.Unlock()
	r := Readiness{
		Degraded:   degraded,
		Queued:     queued,
		QueueDepth: s.cfg.QueueDepth,
		Running:    int(s.running.Load()),
		Workers:    int(s.workersAlive.Load()),
	}
	switch {
	case closed:
		r.Reason = "closed"
	case r.Workers == 0:
		r.Reason = "no live workers"
	case queued >= s.cfg.QueueDepth:
		r.Reason = "queue full"
	default:
		r.Ready = true
	}
	return r
}

// Close stops intake and drains: every already-queued job still runs to
// completion, then the workers exit. Close blocks until the pool is idle
// and is idempotent. Use CancelAll first for a fast shutdown.
func (s *Service) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Shutdown gracefully stops a durable service: intake closes, every
// running job is asked to flush its engine state to a checkpoint (ending
// interrupted, to resume on the next boot's Recover), and queued jobs
// stay queued in the log instead of running. Shutdown blocks until the
// pool is idle; if ctx expires first it falls back to hard cancellation
// and returns the context's error. Without a store, Shutdown degrades to
// Close's drain.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		// Only a durable service may strand queued jobs: without a log
		// they would simply vanish, so drain them instead.
		s.shutdown = s.cfg.Store != nil
		close(s.queue)
	}
	for _, e := range s.jobs {
		if e.state == StateRunning && e.flush != nil {
			select {
			case e.flush <- struct{}{}:
			default:
			}
		}
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.CancelAll()
		<-done
		return ctx.Err()
	}
}

// worker is one pool goroutine: it pops jobs until the queue closes.
// It keeps the graph fingerprint of the job it last ran: a match means
// the next job compiles and runs against an already-resident snapshot
// (SubmitBatch's fingerprint grouping exists to make that common), and
// the hit/miss counters prove the grouping works.
func (s *Service) worker() {
	defer s.wg.Done()
	defer s.workersAlive.Add(-1)
	last := ""
	for e := range s.queue {
		if key := e.compiled.Fingerprint; key != "" {
			if key == last {
				s.affinityHits.Add(1)
			} else {
				s.affinityMisses.Add(1)
			}
			last = key
		} else {
			last = ""
		}
		s.runOne(e)
	}
}

// runOne executes a single job under its deadline, publishing progress
// and finishing with exactly one terminal event per attached member.
func (s *Service) runOne(e *entry) {
	s.mu.Lock()
	if e.canceled {
		// Canceled while queued: Cancel already made it terminal (and
		// detached any followers before setting the flag).
		e.compiled.ReleaseTopo()
		retire(e)
		s.mu.Unlock()
		return
	}
	if s.shutdown {
		// Graceful shutdown is draining the channel, not the work: the
		// job stays queued — in memory and in the log — for the next
		// boot's Recover. This process's snapshot pin is moot.
		s.mu.Unlock()
		e.compiled.ReleaseTopo()
		return
	}
	now := time.Now()
	ctx := context.Background()
	var cancel context.CancelFunc
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	e.cancel = cancel
	if !e.detached {
		// A detached leader's client already saw it end canceled; only
		// the execution survives, so its visible state stays put.
		e.state = StateRunning
		e.started = now
		s.persist(store.Record{JobID: e.id, Hash: e.hash, State: store.StateRunning})
	}
	for _, f := range e.followers {
		f.state = StateRunning
		f.started = now
		s.persist(store.Record{JobID: f.id, Hash: f.hash, State: store.StateRunning})
	}
	if s.durable() {
		e.flush = make(chan struct{}, 1)
	}
	s.mu.Unlock()
	defer cancel()

	s.running.Add(1)
	expRunning.Add(1)
	defer func() {
		s.running.Add(-1)
		expRunning.Add(-1)
	}()

	every := s.cfg.ProgressEvery
	obs := func(round int, outs []model.Value) {
		s.rounds.Add(1)
		expRounds.Add(1)
		if round%every != 0 {
			return
		}
		s.mu.Lock()
		watched := len(e.subs) > 0
		for _, f := range e.followers {
			if len(f.subs) > 0 {
				watched = true
				break
			}
		}
		s.mu.Unlock()
		if !watched {
			// The warm path of a sweep has no stream subscribers: skip
			// the per-round output conversion (and its allocations)
			// outright.
			return
		}
		outputs, maxErr := job.Numeric(outs, e.compiled.Expected)
		s.publish(e, Progress{
			JobID:   e.id,
			State:   StateRunning,
			Round:   round,
			Outputs: outputs,
			MaxErr:  job.F64(maxErr),
		})
	}
	res, err := s.execute(ctx, e, obs)

	s.mu.Lock()
	defer s.mu.Unlock()
	e.cancel = nil
	s.settleLocked(e, res, err)
	e.compiled.ReleaseTopo()
	for _, m := range append([]*entry{e}, e.followers...) {
		if m.state.Terminal() {
			retire(m)
		}
	}
}

// retire shrinks a terminal entry's compiled job to its retained copy
// (job.Compiled.Retained): the record keeps what Get, List, the watch
// stream and a durable backfill still serve — spec, hash, expected value
// — and drops the inputs, network, agent factory and fault injector.
// Every caller holds s.mu, has already released the entry's topology pin,
// and owns the last possible use of the executable state: the worker that
// ran or skipped it, the submitter of a job born done, or the canceler of
// a follower (which never runs).
func retire(e *entry) {
	e.compiled = e.compiled.Retained()
}

// settleLocked applies one finished execution to its leader and every
// attached follower: one state transition per member, one result-cache
// insert, one result payload in the log (the other members' done records
// resolve through the shared hash). Members that went terminal early — a
// canceled follower, a detached leader — are left untouched. Callers
// hold s.mu.
func (s *Service) settleLocked(e *entry, res *job.Result, err error) {
	s.dropInflightLocked(e)
	now := time.Now()
	members := make([]*entry, 0, 1+len(e.followers))
	members = append(members, e)
	members = append(members, e.followers...)
	resultPersisted := false
	for _, m := range members {
		if m.state.Terminal() {
			continue
		}
		m.finished = now
		switch {
		case err == nil:
			m.state = StateDone
			m.result = res
			s.completed.Add(1)
			expCompleted.Add(1)
			rec := store.Record{JobID: m.id, Hash: m.hash, State: store.StateDone}
			if s.cfg.Store != nil && !resultPersisted {
				if raw, merr := json.Marshal(res); merr == nil {
					rec.Result = raw
				}
				resultPersisted = true
			}
			s.persist(rec)
		case errors.Is(err, engine.ErrInterrupted):
			// Graceful shutdown flushed the engine to a checkpoint: the
			// job is not terminal — it resumes (via Recover) on the next
			// boot, and each interrupted follower resumes there as an
			// independent job.
			m.state = StateInterrupted
			s.interrupted.Add(1)
			expInterrupted.Add(1)
			s.persist(store.Record{JobID: m.id, Hash: m.hash, State: store.StateInterrupted, Round: e.ckptRound})
		case errors.Is(err, context.Canceled):
			m.state = StateCanceled
			s.canceled.Add(1)
			expCanceled.Add(1)
			s.persist(store.Record{JobID: m.id, Hash: m.hash, State: store.StateCanceled})
		default:
			m.state = StateFailed
			m.err = err.Error()
			s.failed.Add(1)
			expFailed.Add(1)
			s.persist(store.Record{JobID: m.id, Hash: m.hash, State: store.StateFailed, Error: m.err})
		}
		s.finishLocked(m)
	}
	if err == nil {
		s.cache.add(e.hash, res)
	}
	if s.cfg.Store != nil && !errors.Is(err, engine.ErrInterrupted) {
		s.cfg.Store.DropCheckpoints(e.hash)
	}
	if s.cfg.JobLatency != nil && !e.started.IsZero() {
		s.cfg.JobLatency.Observe(now.Sub(e.started).Seconds())
	}
}

// execute runs one job through the configured runner with panic recovery
// and bounded exponential-backoff retries for errors wrapping
// ErrTransient. A retried job replays its progress stream from round 1.
func (s *Service) execute(ctx context.Context, e *entry, obs engine.Observer) (*job.Result, error) {
	for attempt := 0; ; attempt++ {
		res, err := s.safeRun(ctx, e, attempt, obs)
		if err == nil || !errors.Is(err, ErrTransient) || attempt >= s.cfg.MaxRetries {
			return res, err
		}
		s.retries.Add(1)
		expRetries.Add(1)
		backoff := s.cfg.RetryBase << uint(attempt)
		timer := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
	}
}

// safeRun invokes the runner, converting a panic — a buggy agent, a buggy
// injected runner — into an ordinary failed-job error carrying the panic
// value and stack. The worker goroutine survives; the service keeps
// serving. (The sequential engine deliberately propagates agent panics;
// this is where they stop.)
func (s *Service) safeRun(ctx context.Context, e *entry, attempt int, obs engine.Observer) (res *job.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			expPanics.Add(1)
			res = nil
			err = fmt.Errorf("service: job %s panicked: %v\n%s", e.id, r, debug.Stack())
		}
	}()
	if s.cfg.Intercept != nil {
		if err := s.cfg.Intercept(ctx, e.id, attempt); err != nil {
			return nil, err
		}
	}
	if s.durable() {
		return job.RunCheckpointed(ctx, e.compiled, obs, s.checkpointConfig(e))
	}
	return s.cfg.Runner(ctx, e.compiled, obs)
}

// checkpointConfig wires one running job to the durable store: periodic
// snapshots land as checkpoint blobs keyed by the job's spec hash, the
// entry's flush channel carries shutdown's flush request, and any
// on-disk checkpoint of the same hash — a previous run of this exact
// computation — seeds the resume.
func (s *Service) checkpointConfig(e *entry) job.CheckpointConfig {
	ck := job.CheckpointConfig{
		Every: s.cfg.CheckpointEvery,
		Flush: e.flush,
		Save: func(round int, blob []byte) error {
			// A checkpoint is an optimization, not a correctness need: a
			// failed or skipped save must never fail the job (the run just
			// resumes from an older round after a crash). Failures feed the
			// breaker like any other store error; while degraded, saves are
			// skipped outright.
			s.mu.Lock()
			degraded := s.degradedLocked()
			s.mu.Unlock()
			if degraded {
				s.degradedDrop.Add(1)
				return nil
			}
			if err := s.cfg.Store.SaveCheckpoint(e.hash, round, blob); err != nil {
				s.mu.Lock()
				s.noteStoreFailureLocked(err)
				s.mu.Unlock()
				return nil
			}
			s.mu.Lock()
			s.noteStoreSuccessLocked()
			e.ckptRound = round
			s.mu.Unlock()
			return nil
		},
	}
	if blob, _, err := s.cfg.Store.LatestCheckpoint(e.hash); err == nil {
		ck.Resume = blob
	}
	return ck
}

// publish fans an event out to e's subscribers — and, under its own job
// ID, to every attached follower's — dropping events a slow subscriber
// has no buffer for (the terminal event is handled by finishLocked and
// never dropped silently: the channel close itself is the durable
// signal).
func (s *Service) publish(e *entry, ev Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publishLocked(e, ev)
	for _, f := range e.followers {
		fev := ev
		fev.JobID = f.id
		s.publishLocked(f, fev)
	}
}

// publishLocked delivers one event to one entry's subscribers. Callers
// hold s.mu.
func (s *Service) publishLocked(e *entry, ev Progress) {
	for ch := range e.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// finishLocked sends the terminal event and closes every subscription.
// Callers hold s.mu.
func (s *Service) finishLocked(e *entry) {
	ev := terminalEvent(e)
	for ch := range e.subs {
		select {
		case ch <- ev:
		default:
		}
		close(ch)
		delete(e.subs, ch)
	}
}

// TerminalProgress renders a terminal job snapshot as the stream event
// that ends its watch stream. Publish drops events a slow subscriber has
// no buffer for — including, possibly, the terminal one — so stream
// consumers that see the channel close without a Done event use this to
// synthesize the final line.
func TerminalProgress(j *Job) Progress {
	ev := Progress{JobID: j.ID, State: j.State, Done: true, Error: j.Error}
	if j.Result != nil {
		ev.Round = j.Result.Rounds
		ev.Outputs = j.Result.Outputs
		ev.MaxErr = j.Result.MaxErr
	}
	return ev
}

func terminalEvent(e *entry) Progress {
	ev := Progress{JobID: e.id, State: e.state, Done: true, Error: e.err}
	if e.result != nil {
		ev.Round = e.result.Rounds
		ev.Outputs = e.result.Outputs
		ev.MaxErr = e.result.MaxErr
	}
	return ev
}

// snapshot renders an entry as a client-facing Job. Callers hold s.mu.
func snapshot(e *entry) *Job {
	j := &Job{
		ID:        e.id,
		Hash:      e.hash,
		Spec:      e.compiled.Spec,
		State:     e.state,
		Error:     e.err,
		CacheHit:  e.cacheHit,
		Result:    e.result,
		Submitted: e.submitted,
	}
	if e.leader != nil {
		j.DedupOf = e.leader.id
	}
	if !e.started.IsZero() {
		t := e.started
		j.Started = &t
	}
	if !e.finished.IsZero() {
		t := e.finished
		j.Finished = &t
	}
	return j
}
