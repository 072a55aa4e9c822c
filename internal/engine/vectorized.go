package engine

import (
	"errors"
	"math/rand"
	"sort"

	"anonnet/internal/model"
	"anonnet/internal/topology"
)

// This file holds the vector kernel's building blocks, executed by
// ParallelVec: the vectorizability probe, the per-destination gather with
// fault fates, the row accumulation, the RNG draw that replays
// rand.Shuffle, and the pending store of delayed rows.
//
// Per destination, the contributing rows are gathered in the
// delivery-order invariant (sources ascending, edge insertion order, then
// due delayed deliveries), permuted by the shared seeded RNG with exactly
// the draws of the rand.Shuffle call the generic engines make, and summed
// in the permuted order — so float rounding, and hence traces, agree with
// the sequential engine byte for byte. Property tests in vectorized_test.go
// and parallelvec_test.go assert this across seeds, models, async starts,
// and fault plans.

// ErrNotVectorizable reports that a Config cannot run on the vectorized
// engine: its factory builds agents that do not implement
// model.VectorAgent, or that decline vectorization (a non-linear variant),
// or the model is output-port aware. Callers that want transparent
// degradation (the job runner, the facade) match it with errors.Is and
// fall back to the sequential engine, whose traces are identical anyway.
var ErrNotVectorizable = errors.New("engine: config is not vectorizable")

// CanVectorize reports whether cfg can run on the vectorized engine, by
// probing one agent from the factory (every agent of an execution comes
// from the same factory, so one probe decides for all). It never
// mis-selects: algorithms whose agents do not implement model.VectorAgent,
// or whose variant declines vectorization, report false.
func CanVectorize(cfg Config) bool {
	if cfg.validate() != nil || len(cfg.Inputs) == 0 {
		return false
	}
	if desc, err := model.Lookup(cfg.Kind); err != nil || desc.VecSend == nil {
		return false
	}
	a := cfg.Factory(cfg.Inputs[0])
	va, ok := a.(model.VectorAgent)
	if !ok {
		return false
	}
	return va.InitVector(universeOf(cfg.Inputs)) > 0
}

// universeOf returns the sorted distinct input values — the dense layout
// the per-value (frequency) vector agents index by.
func universeOf(inputs []model.Input) []float64 {
	vals := make([]float64, 0, len(inputs))
	for _, in := range inputs {
		vals = append(vals, in.Value)
	}
	sort.Float64s(vals)
	u := vals[:0]
	for _, v := range vals {
		if len(u) == 0 || u[len(u)-1] != v {
			u = append(u, v)
		}
	}
	return u
}

// gatherDest builds destination j's contribution list in the delivery-order
// invariant — sources ascending, edge insertion order, then due delayed
// rows — applying fault fates (self-loops exempt) with counts recorded in
// fs. Entries ≥ 0 index a sent row; entries < 0 are ^k for row k of the
// caller's late scratch (delayed rows come due, appended by vpend.flush;
// one late scratch per worker for the whole round, so refs survive until
// the accumulate phase).
func gatherDest(c *core, view topology.DstView, t, j, w int, rows []float64, vpend *vecPending, refs []int32, late *[]float64, fs *FaultStats) []int32 {
	snap, inj := view.Snap, c.cfg.Faults
	switch {
	case !c.active[j]:
	case inj == nil:
		for e := snap.Start[j]; e < snap.Start[j+1]; e++ {
			if src := snap.Src[e]; c.active[src] {
				refs = append(refs, src)
			}
		}
	default:
		for e := snap.Start[j]; e < snap.Start[j+1]; e++ {
			src := snap.Src[e]
			if !c.active[src] {
				continue
			}
			if int(src) == j {
				refs = append(refs, src)
				continue
			}
			f := inj.MessageFate(t, int(src), j)
			if f.Drop {
				fs.Dropped++
				continue
			}
			copies := 1
			if f.Dup > 0 {
				copies += f.Dup
				fs.Duplicated += int64(f.Dup)
			}
			if f.Delay > 0 {
				fs.Delayed += int64(copies)
				for c := 0; c < copies; c++ {
					vpend.add(j, t+f.Delay, rows[int(src)*w:(int(src)+1)*w])
				}
				continue
			}
			for c := 0; c < copies; c++ {
				refs = append(refs, src)
			}
		}
	}
	if vpend != nil {
		refs = vpend.flush(j, t, refs, late, c.active[j])
	}
	return refs
}

// accumulateRows sums the referenced rows into sum, in slice order, one
// running total per component — the same addition sequence as the generic
// engines' message loop, so the rounding is identical. The width-1 and
// width-2 cases keep the totals in registers; they are the hot shapes
// (Push-Sum averages and Metropolis). sum must be zeroed by the caller.
func accumulateRows(sum []float64, refs []int32, w int, rows, late []float64) {
	switch w {
	case 1:
		s0 := 0.0
		for _, r := range refs {
			s0 += rowOf(r, 1, rows, late)[0]
		}
		sum[0] = s0
	case 2:
		s0, s1 := 0.0, 0.0
		for _, r := range refs {
			row := rowOf(r, 2, rows, late)
			s0 += row[0]
			s1 += row[1]
		}
		sum[0], sum[1] = s0, s1
	default:
		for _, r := range refs {
			row := rowOf(r, w, rows, late)
			for c := 0; c < w; c++ {
				sum[c] += row[c]
			}
		}
	}
}

// rowOf resolves a gather reference: ≥ 0 indexes a sent row, < 0 is ^k
// into the late scratch.
func rowOf(r int32, w int, rows, late []float64) []float64 {
	if r >= 0 {
		return rows[int(r)*w : (int(r)+1)*w]
	}
	k := int(^r)
	return late[k*w : (k+1)*w]
}

// randInt31n mirrors math/rand's unexported int31n — the bounded draw
// rand.Shuffle makes per swap: an unbiased multiply-shift with rejection,
// consuming Uint32s from the shared source. math/rand is frozen, so the
// algorithm, and hence the draw sequence, is stable; the trace-equality
// property tests fail on any divergence.
func randInt31n(r *rand.Rand, n int32) int32 {
	v := r.Uint32()
	prod := uint64(v) * uint64(n)
	low := uint32(prod)
	if low < uint32(n) {
		thresh := uint32(-n) % uint32(n)
		for low < thresh {
			v = r.Uint32()
			prod = uint64(v) * uint64(n)
			low = uint32(prod)
		}
	}
	return int32(prod >> 32)
}

// vecPending is the vector analogue of pendingStore: delayed rows per
// destination, appended in delivery-iteration order and flushed in that
// order, with the same keep-compaction. Rows are copied out of the sent
// buffer at add time because that buffer is rewritten every round.
type vecPending struct {
	width int
	byDst []vecQueue
}

type vecQueue struct {
	due []int
	buf []float64 // len(due)·width, row k at buf[k·width : (k+1)·width]
}

func newVecPending(n, width int) *vecPending {
	return &vecPending{width: width, byDst: make([]vecQueue, n)}
}

// add enqueues a copy of row for dst at round due.
func (p *vecPending) add(dst, due int, row []float64) {
	q := &p.byDst[dst]
	q.due = append(q.due, due)
	q.buf = append(q.buf, row...)
}

// flush moves every row due by round t into late (when deliver is true; an
// inactive destination loses its due rows), appending a ^k reference to
// refs for each, and compacts the rest in place.
func (p *vecPending) flush(dst, t int, refs []int32, late *[]float64, deliver bool) []int32 {
	q := &p.byDst[dst]
	if len(q.due) == 0 {
		return refs
	}
	w := p.width
	keep := 0
	for idx, due := range q.due {
		if due <= t {
			if deliver {
				k := len(*late) / w
				*late = append(*late, q.buf[idx*w:(idx+1)*w]...)
				refs = append(refs, int32(^k))
			}
		} else {
			q.due[keep] = due
			copy(q.buf[keep*w:(keep+1)*w], q.buf[idx*w:(idx+1)*w])
			keep++
		}
	}
	q.due = q.due[:keep]
	q.buf = q.buf[:keep*w]
	return refs
}
