package congest

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"arbods/internal/graph"
)

// refRun is the reference delivery model the engine is checked against:
// a plain sequential simulator that pushes every send onto every edge it
// crosses. Senders go in ID order and each sender's sends in send order,
// a broadcast expands to the neighbors in ascending order, each pushed
// packet is charged to its directed edge and, unless the receiver has
// terminated, appended to the receiver's next inbox with the sender's
// position found by binary search. It shares only the Sender's recording
// with the engine — none of its slots, side lists, gather or accounting.
func refRun[O any](g *graph.Graph, factory Factory[O], mode Mode, budget int) (*Result[O], error) {
	type push struct {
		to int32
		p  Packet
	}
	n := g.N()
	procs := make([]Proc[O], n)
	for v := range procs {
		procs[v] = factory(NodeInfo{ID: v, Neighbors: g.Neighbors(v), Weight: g.Weight(v), N: n})
	}
	res := &Result[O]{Bandwidth: budget}
	done := make([]bool, n)
	inbox := make([][]Incoming, n)
	for round, active := 0, n; active > 0; round++ {
		outs := make([][]push, n)
		active = 0
		for v := range procs {
			if done[v] {
				continue
			}
			s := &Sender{owner: int32(v), neighbors: g.Neighbors(v)}
			if procs[v].Step(round, inbox[v], s) {
				done[v] = true
			} else {
				active++
			}
			if s.err != nil {
				return nil, s.err
			}
			var sends []sideEntry // in send order; to < 0 is a broadcast
			switch s.kind {
			case sendBroadcast:
				sends = []sideEntry{{to: -1, p: s.bcast}}
			case sendSide:
				sends = s.side
			}
			for _, e := range sends {
				if e.to >= 0 {
					outs[v] = append(outs[v], push{e.to, e.p})
					continue
				}
				for _, u := range s.neighbors {
					outs[v] = append(outs[v], push{u, e.p})
				}
			}
		}
		next := make([][]Incoming, n)
		var msgs, bits int64
		for v, out := range outs {
			edge := map[int32]int64{}
			for _, o := range out {
				b := int64(o.p.Bits)
				msgs++
				bits += b
				edge[o.to] += b
				if res.MessageStats == nil {
					res.MessageStats = map[string]MessageStat{}
				}
				st := res.MessageStats[o.p.Tag.String()]
				st.Count++
				st.Bits += b
				res.MessageStats[o.p.Tag.String()] = st
				if done[o.to] {
					res.DroppedMessages++
					continue
				}
				idx, _ := slices.BinarySearch(g.Neighbors(int(o.to)), int32(v))
				next[o.to] = append(next[o.to], Incoming{From: int32(v), Idx: int32(idx), P: o.p})
			}
			for _, to := range slices.Sorted(maps.Keys(edge)) {
				sum := edge[to]
				res.MaxEdgeBits = max(res.MaxEdgeBits, int(sum))
				if budget > 0 && sum > int64(budget) {
					if mode == Congest {
						return nil, &BandwidthError{Round: round, From: v, To: int(to), Bits: int(sum), Budget: budget}
					}
					res.BandwidthViolations++
				}
			}
		}
		res.Messages += msgs
		res.TotalBits += bits
		res.RoundStats = append(res.RoundStats, RoundStat{Round: round, Messages: msgs, Bits: bits, ActiveNodes: active})
		res.Rounds = round + 1
		inbox = next
	}
	res.Outputs = make([]O, n)
	for v := range procs {
		res.Outputs[v] = procs[v].Output()
	}
	return res, nil
}

// scriptAct is one scripted send: to a node ID, or to every neighbor
// when to < 0.
type scriptAct struct {
	to int
	p  Packet
}

// nodeScript is one node's behavior: its sends, round by round, and the
// round whose Step terminates it.
type nodeScript struct {
	acts [][]scriptAct
	stop int
}

// received is one delivered packet and the round it arrived in.
type received struct {
	Round int
	In    Incoming
}

// scriptProc replays a nodeScript and records its whole inbox history,
// so comparing Outputs compares every node's inbox sequence.
type scriptProc struct {
	sc  *nodeScript
	got []received
}

func (p *scriptProc) Step(round int, in []Incoming, s *Sender) bool {
	for _, m := range in {
		p.got = append(p.got, received{round, m})
	}
	if round < len(p.sc.acts) {
		for _, a := range p.sc.acts[round] {
			if a.to < 0 {
				s.Broadcast(a.p)
			} else {
				s.Send(a.to, a.p)
			}
		}
	}
	return round >= p.sc.stop
}

func (p *scriptProc) Output() []received { return p.got }

// scriptFactory builds fresh procs over shared, read-only scripts; nodes
// without a script terminate silently in round 0.
func scriptFactory(scripts map[int]*nodeScript) Factory[[]received] {
	idle := &nodeScript{}
	return func(ni NodeInfo) Proc[[]received] {
		sc := scripts[ni.ID]
		if sc == nil {
			sc = idle
		}
		return &scriptProc{sc: sc}
	}
}

// checkAgainstReference runs the scripts on the engine at each worker
// count and requires the exact Result — or, in Congest mode, the exact
// *BandwidthError — of the reference.
func checkAgainstReference(t *testing.T, g *graph.Graph, scripts map[int]*nodeScript, mode Mode, budget int, workers ...int) (*Result[[]received], error) {
	t.Helper()
	refBudget := budget
	if mode == Local {
		refBudget = 0
	}
	want, wantErr := refRun(g, scriptFactory(scripts), mode, refBudget)
	for _, w := range workers {
		got, err := Run(g, scriptFactory(scripts), WithMode(mode), WithBandwidth(budget),
			WithWorkers(w), WithRoundStats(), WithMessageStats())
		if !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("mode %d workers=%d: error %v, reference %v", mode, w, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mode %d workers=%d: result differs from the reference\n got: %+v\nwant: %+v", mode, w, got, want)
		}
	}
	return want, wantErr
}

// byteStream hands out fuzz input bytes, then zeros.
type byteStream []byte

func (b *byteStream) next() int {
	if len(*b) == 0 {
		return 0
	}
	x := (*b)[0]
	*b = (*b)[1:]
	return int(x)
}

// fuzzN is the node count every fuzz graph is embedded in: at least
// parallelStepMin, so workers 2 and 3 really split the nodes into shards.
const fuzzN = parallelStepMin

// fuzzBits are the packet sizes scripts draw from. The fuzz budget is
// 32 bits, so the last one trips it alone and two mid-sized sends to one
// neighbor trip it together.
var fuzzBits = [...]uint32{4, 8, 13, 20, 40}

// decodeScripts turns fuzz input into a random graph on k ≤ 16 nodes,
// spread over fuzzN IDs, and a script per node: up to four rounds, each
// with up to three sends mixing Broadcast, repeated Sends to one
// neighbor, and broadcast plus unicast to the same neighbor.
func decodeScripts(data []byte) (*graph.Graph, map[int]*nodeScript) {
	in := byteStream(data)
	k := 1 + in.next()%16
	stride := fuzzN / k
	b := graph.NewBuilder(fuzzN)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if in.next()%3 == 0 {
				b.AddEdge(i*stride, j*stride)
			}
		}
	}
	g := b.MustBuild()
	scripts := make(map[int]*nodeScript, k)
	for i := 0; i < k; i++ {
		v := i * stride
		nbrs := g.Neighbors(v)
		sc := &nodeScript{stop: in.next() % 5}
		for r := 0; r <= sc.stop; r++ {
			var acts []scriptAct
			for a := in.next() % 4; a > 0; a-- {
				op := in.next()
				p := Packet{
					Tag:  Tag(MaxTags - 1 - op%3),
					Bits: fuzzBits[in.next()%len(fuzzBits)],
					A:    uint64(r<<16 | v<<8 | len(acts)),
				}
				to := -1
				if len(nbrs) > 0 && op%4 != 0 {
					to = int(nbrs[(op/4)%len(nbrs)])
				}
				acts = append(acts, scriptAct{to, p})
			}
			sc.acts = append(sc.acts, acts)
		}
		scripts[v] = sc
	}
	return g, scripts
}

// FuzzDelivery checks the engine's delivery against refRun on random
// graphs and scripts, in all three modes and at workers 1, 2 and 3.
func FuzzDelivery(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 2, 2, 5, 3, 1, 9, 4, 0, 3, 2, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, scripts := decodeScripts(data)
		for _, mode := range []Mode{Congest, CongestAudit, Local} {
			checkAgainstReference(t, g, scripts, mode, 32, 1, 2, 3)
		}
	})
}

// TestStarHubUnicastSidePath: a hub Sends to each of 5·10⁴ leaves in
// descending order, Broadcasts, then Sends again to every even leaf, all
// in one round. Every leaf must see its packets in send order, exactly as
// the reference delivers them. A side path that scans a sender's whole
// list per receiver would do 5·10⁴ × 10⁵ work here.
func TestStarHubUnicastSidePath(t *testing.T) {
	const leaves = 50_000
	b := graph.NewBuilder(leaves + 1)
	for v := 1; v <= leaves; v++ {
		b.AddEdge(0, v)
	}
	g := b.MustBuild()
	var acts []scriptAct
	for v := leaves; v >= 1; v-- {
		acts = append(acts, scriptAct{v, Packet{Tag: MaxTags - 1, Bits: 8, A: uint64(v)}})
	}
	acts = append(acts, scriptAct{-1, Packet{Tag: MaxTags - 2, Bits: 6}})
	for v := 2; v <= leaves; v += 2 {
		acts = append(acts, scriptAct{v, Packet{Tag: MaxTags - 3, Bits: 5, A: uint64(v)}})
	}
	hub := &nodeScript{acts: [][]scriptAct{acts}}
	leaf := &nodeScript{stop: 1}
	scripts := map[int]*nodeScript{0: hub}
	for v := 1; v <= leaves; v++ {
		scripts[v] = leaf
	}
	res, _ := checkAgainstReference(t, g, scripts, Congest, 32, 1, 2)
	if got := res.Outputs[2]; len(got) != 3 || got[1].In.P.Tag != MaxTags-2 {
		t.Fatalf("leaf 2 inbox %+v, want unicast, broadcast, unicast", got)
	}
	if res.MaxEdgeBits != 19 || res.Messages != leaves+leaves+leaves/2 {
		t.Fatalf("max edge %d bits, %d messages", res.MaxEdgeBits, res.Messages)
	}
}

// budgetScenario is a 100-node cycle plus chords where two senders each
// broadcast 20 bits and unicast 16 more to two neighbors, in descending
// order — so two edges of each exceed a 32-bit budget — and a third
// sender stays under it.
func budgetScenario() (*graph.Graph, map[int]*nodeScript) {
	b := graph.NewBuilder(100)
	for v := 0; v < 100; v++ {
		b.AddEdge(v, (v+1)%100)
	}
	b.AddEdge(30, 33)
	b.AddEdge(70, 75)
	g := b.MustBuild()
	bc := Packet{Tag: MaxTags - 1, Bits: 20}
	uni := Packet{Tag: MaxTags - 2, Bits: 16}
	heavy := func(hi, lo int) *nodeScript {
		return &nodeScript{acts: [][]scriptAct{{{-1, bc}, {hi, uni}, {lo, uni}}}, stop: 1}
	}
	return g, map[int]*nodeScript{
		70: heavy(75, 71),
		30: heavy(33, 31),
		10: {acts: [][]scriptAct{{{-1, bc}, {11, Packet{Tag: MaxTags - 2, Bits: 12}}}}, stop: 1},
	}
}

// TestBroadcastPlusUnicastStrictAbort: the strict abort names the lowest
// violating sender, then its lowest receiver, with the edge's summed bits.
func TestBroadcastPlusUnicastStrictAbort(t *testing.T) {
	g, scripts := budgetScenario()
	_, err := checkAgainstReference(t, g, scripts, Congest, 32, 1, 2, 3, 4)
	want := &BandwidthError{Round: 0, From: 30, To: 31, Bits: 36, Budget: 32}
	if !reflect.DeepEqual(err, want) {
		t.Fatalf("got %v, want %v", err, want)
	}

	// A broadcast over budget by itself: every edge violates, the lowest
	// receiver is the lowest neighbor, and the unicast to it still sums in.
	scripts[30] = &nodeScript{acts: [][]scriptAct{{{33, Packet{Tag: MaxTags - 2, Bits: 4}}, {-1, Packet{Tag: MaxTags - 1, Bits: 40}}}}}
	_, err = checkAgainstReference(t, g, scripts, Congest, 32, 1, 2, 3, 4)
	want = &BandwidthError{Round: 0, From: 30, To: 29, Bits: 40, Budget: 32}
	if !reflect.DeepEqual(err, want) {
		t.Fatalf("got %v, want %v", err, want)
	}
}

// TestBroadcastPlusUnicastAudit: in audit mode the same scenario runs to
// completion with four violating edges, identically at every worker count.
func TestBroadcastPlusUnicastAudit(t *testing.T) {
	g, scripts := budgetScenario()
	res, err := checkAgainstReference(t, g, scripts, CongestAudit, 32, 1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.BandwidthViolations != 4 || res.MaxEdgeBits != 36 {
		t.Fatalf("%d violations, max edge %d bits; want 4 and 36", res.BandwidthViolations, res.MaxEdgeBits)
	}
}
