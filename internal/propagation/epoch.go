package propagation

import "repro/internal/ids"

// epochMarks is an epoch-stamped user set: has/add/del are O(1) array
// probes and reset invalidates every mark with one epoch bump instead of
// a clear — the same trick similarity.BatchScratch uses for SimBatch
// (PR 2), applied here to the per-retweet propagation hot path. The
// backing array pays an O(n) clear only once per 2^32 resets, when the
// epoch counter wraps.
//
// A fresh epochMarks must be reset before first use (reset establishes
// epoch >= 1, distinguishing live stamps from the zeroed array).
type epochMarks struct {
	epoch uint32
	stamp []uint32
}

// reset starts a new epoch over at least n slots.
func (m *epochMarks) reset(n int) {
	if n > len(m.stamp) {
		m.stamp = append(m.stamp, make([]uint32, n-len(m.stamp))...)
	}
	m.epoch++
	if m.epoch == 0 { // wrapped: hard-clear once and restart
		clear(m.stamp)
		m.epoch = 1
	}
}

func (m *epochMarks) has(u ids.UserID) bool { return m.stamp[u] == m.epoch }
func (m *epochMarks) add(u ids.UserID)      { m.stamp[u] = m.epoch }

// del unmarks u within the current epoch (0 is never a live epoch).
func (m *epochMarks) del(u ids.UserID) { m.stamp[u] = 0 }

// epochVec is an epoch-stamped dense float vector: slots not stamped in
// the current epoch read as 0, so the per-call reset of a |V|-sized score
// array costs O(1).
type epochVec struct {
	marks epochMarks
	val   []float64
}

// reset starts a new epoch over at least n slots.
func (v *epochVec) reset(n int) {
	v.marks.reset(n)
	if n > len(v.val) {
		v.val = append(v.val, make([]float64, n-len(v.val))...)
	}
}

// get returns the value at u, or 0 if u is unstamped this epoch.
func (v *epochVec) get(u ids.UserID) float64 {
	if v.marks.has(u) {
		return v.val[u]
	}
	return 0
}

// set writes x at u and reports whether this was u's first touch of the
// current epoch (callers use it to maintain a touched-list).
func (v *epochVec) set(u ids.UserID, x float64) bool {
	first := !v.marks.has(u)
	if first {
		v.marks.add(u)
	}
	v.val[u] = x
	return first
}

// stateVec is Incremental's dense view of one tweet state: per user, an
// epoch stamp, the user's score and its position in the state's slices,
// packed in one 16-byte record so the per-edge score probe and the
// scatter each touch a single cache line. Slots not stamped in the
// current epoch read as score 0 and are absent from the state; a stamped
// slot has pos -1 until the user is written back into the state.
type stateVec struct {
	epoch uint32
	slot  []stateSlot
}

type stateSlot struct {
	stamp uint32
	pos   int32
	p     float64
}

// reset starts a new epoch over at least n slots, hard-clearing only
// when the epoch counter wraps (as epochMarks does).
func (v *stateVec) reset(n int) {
	if n > len(v.slot) {
		v.slot = append(v.slot, make([]stateSlot, n-len(v.slot))...)
	}
	v.epoch++
	if v.epoch == 0 {
		clear(v.slot)
		v.epoch = 1
	}
}

// get returns u's score, or 0 if u is unstamped this epoch.
func (v *stateVec) get(u ids.UserID) float64 {
	if s := &v.slot[u]; s.stamp == v.epoch {
		return s.p
	}
	return 0
}

// load stamps u with its score and position in the state (the scatter).
func (v *stateVec) load(u ids.UserID, pos int, p float64) {
	v.slot[u] = stateSlot{stamp: v.epoch, pos: int32(pos), p: p}
}

// set writes u's score, stamping u as not yet in the state on first
// touch.
func (v *stateVec) set(u ids.UserID, p float64) {
	s := &v.slot[u]
	if s.stamp != v.epoch {
		*s = stateSlot{stamp: v.epoch, pos: -1}
	}
	s.p = p
}
