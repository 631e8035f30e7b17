package congest

import (
	"cmp"
	"slices"
)

// stepShard is one worker's node range plus everything the worker
// touches while stepping it: its Sender, its side lists, its inbox
// buffer, and its share of the transcript accounting.
type stepShard struct {
	lo, hi int
	active int   // nodes in range still running after this round
	err    error // first Sender error in range (lowest node ID)

	// cur is the node whose Step is currently executing — a plain store
	// per node, read only by the panic recovery path so a recovered panic
	// knows which node's callback blew up.
	cur int
	// pan is the panic recovered from this shard's range this round, if
	// any. The engine converts the lowest-node pan across shards into the
	// run's *ProcPanicError at the barrier; panics take precedence over
	// Sender errors so the reported failure is worker-count invariant
	// (shards keep stepping past a Sender error but stop at a panic, so
	// the Sender-error set can differ across layouts — the panic set of
	// the surviving minimum cannot).
	pan *ProcPanicError

	// per-round results
	msgs, bits int64
	bwErr      *BandwidthError // strict mode: lowest violating sender in range, then its lowest receiver

	// per-run accumulators, merged by finish
	gathered    int64 // messages placed into inboxes; sent − gathered = dropped
	violations  int64
	maxEdgeBits int
	// stats is tag-indexed: recording a send is two array adds, and
	// finish aggregates by scanning MaxTags entries — no hashing in the
	// hot path.
	stats [MaxTags]MessageStat

	snd  Sender         // pointed at each node of the range in turn
	side [2][]sideEntry // side lists by round parity; slots hold [lo, hi) spans into them
	in   []Incoming     // inbox buffer, reused node after node

	_ [32]byte // round the live fields up to a line boundary
	_ linePad  // keep adjacent shards' hot fields off shared cache lines
}

// stepRange runs one round for shard w's node range. For each node in ID
// order it gathers the inbox from the neighbors' previous-round slots,
// steps the proc, and settles the node's sends into this round's slots.
// Each node writes only its own slot and its own shard's side list, and
// reads only the other parity, so shards are race-free.
//
// A panic in a Proc.Step call (or in an injected engine fault) is
// recovered here — on the worker goroutine that runs the shard — and
// parked in the shard for the engine's barrier to convert into a run
// error, so one faulty proc fails one run instead of the process.
func (e *engine[O]) stepRange(w int) {
	s := &e.steps[w]
	s.active, s.err, s.pan, s.cur = 0, nil, nil, -1
	s.msgs, s.bits, s.bwErr = 0, 0, nil
	defer func() {
		if v := recover(); v != nil {
			s.pan = newProcPanic(e.round, s.cur, v)
		}
	}()
	round := e.round
	if e.cfg.faults != nil && w == 0 {
		// The engine-side injection seam: a chaos test arms "congest.step"
		// to panic (exercising exactly this recover, on a pool goroutine
		// when parallel), to sleep (a slow round), or to fail the round
		// with an error. Fired once per round, on shard 0 only, so Times
		// accounting is layout-independent.
		if err := e.cfg.faults.FireRound("congest.step", round); err != nil {
			s.err = err
			return
		}
	}
	cur := round & 1
	kinds, slots := e.kinds[cur], e.slots[cur]
	snd := &s.snd
	snd.side = s.side[cur][:0]
	for v := s.lo; v < s.hi; v++ {
		// A terminated node sends nothing, and its slot from two rounds
		// ago must not be read again.
		kinds[v] = sendNone
		if e.done[v] {
			continue
		}
		s.cur = v
		nbrs := e.g.Neighbors(v)
		var in []Incoming
		if round > 0 {
			in = e.gather(s, v, nbrs)
		}
		snd.owner, snd.neighbors, snd.kind, snd.lo, snd.err = int32(v), nbrs, sendNone, len(snd.side), nil
		if e.procs[v].Step(round, in, snd) {
			e.done[v] = true
		} else {
			s.active++
		}
		if snd.err != nil {
			if s.err == nil {
				s.err = snd.err
			}
			continue // the run aborts at this round's barrier
		}
		switch snd.kind {
		case sendBroadcast:
			kinds[v], slots[v] = sendBroadcast, snd.bcast
			if len(nbrs) > 0 {
				d := int64(len(nbrs))
				e.tally(s, snd.bcast, d)
				e.load(s, v, int(nbrs[0]), int64(snd.bcast.Bits), d)
			}
		case sendSide:
			kinds[v], slots[v] = sendSide, Packet{A: uint64(snd.lo), B: uint64(len(snd.side))}
			e.settleSide(s, v, nbrs, snd.side[snd.lo:])
		}
	}
	s.side[cur] = snd.side // keep the grown list for the next round of this parity
}

// gather builds v's inbox from its neighbors' previous-round slots. It
// walks v's sorted neighbor list, so senders come out in ascending ID
// order and each one's packets for v in send order: the inbox is in
// (sender ID, send index) order, and Incoming.Idx is the loop index.
func (e *engine[O]) gather(s *stepShard, v int, nbrs []int32) []Incoming {
	prev := (e.round - 1) & 1
	kinds, slots := e.kinds[prev], e.slots[prev]
	in := s.in[:0]
	for j, u := range nbrs {
		switch kinds[u] {
		case sendBroadcast:
			in = append(in, Incoming{From: u, Idx: int32(j), P: slots[u]})
		case sendSide:
			in = e.gatherSide(in, prev, u, int32(j), int32(v))
		}
	}
	s.in = in
	s.gathered += int64(len(in))
	return in[:len(in):len(in)]
}

// gatherSide appends sender u's side-list packets for receiver v. The
// list was sorted by destination when u settled, so u's broadcasts lead
// (destination -1) and v's unicasts are one contiguous run found by
// binary search; merging the two by send index restores send order.
func (e *engine[O]) gatherSide(in []Incoming, parity int, u, j, v int32) []Incoming {
	span := e.slots[parity][u]
	ents := e.steps[shardOf(e.bounds, u)].side[parity][span.A:span.B]
	nb := firstTo(ents, 0)
	lo := firstTo(ents, v)
	hi := lo
	for hi < len(ents) && ents[hi].to == v {
		hi++
	}
	bc, uni := ents[:nb], ents[lo:hi]
	for len(bc) > 0 || len(uni) > 0 {
		var p Packet
		if len(uni) == 0 || (len(bc) > 0 && bc[0].seq < uni[0].seq) {
			p, bc = bc[0].p, bc[1:]
		} else {
			p, uni = uni[0].p, uni[1:]
		}
		in = append(in, Incoming{From: u, Idx: j, P: p})
	}
	return in
}

// firstTo returns the index of the first entry with destination ≥ to in
// a side list sorted by destination.
func firstTo(ents []sideEntry, to int32) int {
	lo, hi := 0, len(ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ents[mid].to < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// settleSide accounts a node whose sends went to the side list. It sorts
// them by destination — broadcasts first, send order kept within each
// destination — for gatherSide's binary search, then charges every
// directed edge the bits of all of v's broadcasts plus its own unicasts.
func (e *engine[O]) settleSide(s *stepShard, v int, nbrs []int32, ents []sideEntry) {
	byDest := func(a, b sideEntry) int { return cmp.Compare(a.to, b.to) }
	if !slices.IsSortedFunc(ents, byDest) {
		slices.SortStableFunc(ents, byDest)
	}
	deg := int64(len(nbrs))
	var bcast int64 // bits every edge carries: the sum of v's broadcasts
	i := 0
	for ; i < len(ents) && ents[i].to < 0; i++ {
		e.tally(s, ents[i].p, deg)
		bcast += int64(ents[i].p.Bits)
	}
	broadcasts := i > 0
	targets := int64(0)
	for i < len(ents) {
		to := ents[i].to
		sum := bcast
		for ; i < len(ents) && ents[i].to == to; i++ {
			e.tally(s, ents[i].p, 1)
			sum += int64(ents[i].p.Bits)
		}
		targets++
		e.load(s, v, int(to), sum, 1)
	}
	// The edges that carry broadcasts only. If they break the budget, so
	// does every edge of v, and the lowest receiver is nbrs[0]: either it
	// got a unicast and was charged above with its full sum, or it is one
	// of these.
	if rest := deg - targets; broadcasts && rest > 0 {
		e.load(s, v, int(nbrs[0]), bcast, rest)
	}
}

// tally counts k copies of p against the round's traffic and, when
// recorded, its tag's statistics.
func (e *engine[O]) tally(s *stepShard, p Packet, k int64) {
	b := int64(p.Bits) * k
	s.msgs += k
	s.bits += b
	if e.cfg.msgStats {
		st := &s.stats[p.Tag]
		st.Count += k
		st.Bits += b
	}
}

// load charges `edges` directed edges out of v that each carry sum bits
// this round; to is the receiver a strict abort names if they break the
// budget. Budget applies per directed edge: all of v's packets to one
// neighbor in one round share one B-bit slot, so their sizes sum.
func (e *engine[O]) load(s *stepShard, v, to int, sum, edges int64) {
	if int(sum) > s.maxEdgeBits {
		s.maxEdgeBits = int(sum)
	}
	if e.budget == 0 || sum <= int64(e.budget) {
		return
	}
	if e.cfg.mode != Congest {
		s.violations += edges
		return
	}
	// Nodes settle in ascending order, so the first violating sender in
	// range stays; a later edge of the same sender wins if its receiver
	// is lower.
	if s.bwErr == nil || (s.bwErr.From == v && to < s.bwErr.To) {
		s.bwErr = &BandwidthError{Round: e.round, From: v, To: to, Bits: int(sum), Budget: e.budget}
	}
}
