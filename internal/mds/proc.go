package mds

import (
	"math"

	"arbods/internal/congest"
)

// Output is the per-node result of every algorithm in this package.
type Output struct {
	// InDS reports membership in the final dominating set S ∪ S′.
	InDS bool
	// InPartial reports membership in the partial set S of Lemma 4.1.
	InPartial bool
	// InExtension reports membership in the completion/extension set S′.
	InExtension bool
	// Dominated reports whether the node ended dominated. It must be true
	// for every node whenever the algorithm's guarantee applies; the
	// verifier checks it.
	Dominated bool
	// Packing is the node's final Lemma 4.1 packing value x_v — frozen
	// before any extension-phase rescaling, so the vector {Packing} is a
	// feasible packing and Σ Packing ≤ OPT (Lemma 2.1). It certifies the
	// approximation ratio of the run.
	Packing float64
	// Tau is τ_v = min_{u∈N+(v)} w_u (0 for algorithms that do not use it).
	Tau int64
	// SampledDominators is the Lemma 4.7 quantity c_v: the number of
	// extension-sampled nodes that dominate this node in the iteration it
	// first became dominated (0 if dominated during the partial phase or
	// never). Lemma 4.7 proves E[c_v] ≤ γ+1; the test suite and the
	// diagnostics table check it empirically.
	SampledDominators int
}

// completionMode selects what happens to nodes left undominated by the
// partial phase.
type completionMode int

const (
	// completeNone leaves them undominated (Lemma 4.1 by itself).
	completeNone completionMode = iota + 1
	// completeSelf adds every undominated node to the set (Section 3's T).
	completeSelf
	// completeRequest adds, for every undominated node v, the node of
	// weight τ_v in N+(v) (Theorem 1.1's S′).
	completeRequest
	// completeExtension runs the Lemma 4.6 randomized extension.
	completeExtension
)

// detParams configures the unified proc.
type detParams struct {
	eps    float64
	lambda float64
	mode   completionMode

	// Extension parameters (mode == completeExtension).
	gamma       float64
	skipPartial bool // Theorem 1.3: S = ∅, jump straight to the extension

	// forceIters, when positive, overrides the Lemma 4.1 iteration count —
	// used by the round-truncation sweeps of the lower-bound experiment
	// (fewer rounds ⇒ worse approximation, the Theorem 1.4 phenomenon).
	forceIters int

	// noFreeze disables the freeze-on-domination rule (paper step 3 raises
	// only undominated packing values). Ablation only: without the freeze
	// the packing loses feasibility, so Σx stops lower-bounding OPT and the
	// whole certificate collapses — which is precisely what the ablation
	// experiment demonstrates.
	noFreeze bool
}

// stage is the proc's position in the globally synchronized schedule. All
// nodes transition through stages in lockstep because transitions depend
// only on the globally known parameters (n, Δ, α, ε, λ, γ).
type stage int

const (
	stInit     stage = iota + 1 // broadcast weight
	stSetup                     // compute τ, x⁰; broadcast packing
	stIterA                     // absorb packing; join S on threshold; broadcast join
	stIterB                     // absorb joins; bump x; broadcast packing (+ dom at handoff)
	stCompReq                   // undominated nodes request their τ-neighbor
	stCompJoin                  // requested nodes join S′
	stExtA                      // phase/iteration bookkeeping; sample Γ; broadcast join
	stExtB                      // absorb joins; newly dominated broadcast dom
	stDone
)

// proc is the unified node proc for the deterministic algorithms
// (Theorems 3.1 and 1.1, Lemma 4.1) and the randomized ones
// (Lemma 4.6, Theorems 1.2 and 1.3).
type proc struct {
	p     detParams
	ni    congest.NodeInfo
	delta int // Δ, globally known

	r int // number of Lemma 4.1 iterations

	// Neighbor caches, indexed by position in ni.Neighbors.
	nbrX   []float64
	nbrW   []int64
	nbrDom []bool

	pow powTable // (1+ε)^e, shared by every proc of the run

	tau    int64
	argmin int

	x    float64 // current packing value
	exp  int     // number of (1+ε) multiplications applied to x
	x41  float64 // x frozen at the end of the Lemma 4.1 phase (certificate)
	inS  bool
	inSP bool // in S′
	dom  bool

	requested bool // received a requestMsg

	// Extension state.
	extIters  int // iterations per phase: ⌈log_γ(Δ+1)⌉ + 1
	extPhases int // phases: ⌈log_γ(1/λ)⌉
	phaseIdx  int
	iterIdx   int
	prob      float64
	inGamma   bool

	// Lemma 4.7 bookkeeping.
	cv     int  // c_v: sampled dominators at first domination
	cvSet  bool // c_v recorded
	cvSelf bool // this node sampled itself while undominated last round

	st   stage
	iter int // Lemma 4.1 iteration counter
}

var _ congest.Proc[Output] = (*proc)(nil)

// init constructs the proc in place (pr is a slab entry the run's factory
// owns), carving the neighbor caches from the run's arena. pow is the
// run's (1+ε)^e table when an earlier proc built it, else nil.
func (pr *proc) init(p detParams, ni congest.NodeInfo, pow powTable) {
	deg := ni.Degree()
	*pr = proc{
		p:     p,
		ni:    ni,
		delta: ni.MaxDegree,
		nbrX:  ni.Arena.Float64s(deg),
		nbrW:  ni.Arena.Int64s(deg),
		st:    stInit,
	}
	if p.mode == completeExtension {
		pr.nbrDom = ni.Arena.Bools(deg)
		pr.extIters = extensionIterations(p.gamma, pr.delta)
		pr.extPhases = extensionPhases(p.gamma, p.lambda)
	}
	switch {
	case p.skipPartial:
		pr.r = 0
	case p.forceIters > 0:
		pr.r = p.forceIters
	default:
		pr.r = partialIterations(p.eps, p.lambda, pr.delta)
	}
	// Packing exponents never exceed the iteration count r.
	if pow == nil {
		pow = newPowTable(ni.Arena, p.eps, pr.r+1)
	}
	pr.pow = pow
}

// powTable holds (1+ε)^e for e in [0, len). It is built once per run with
// the same math.Pow calls the packing decoders used to make per message,
// so every value is bit-identical; an exponent past the end falls back
// to math.Pow. Factories hand every proc node 0's table from their fresh
// proc slab, and the engine constructs procs in ID order, so node 0
// builds the run's one table, carved from its arena, and every later
// proc shares it: the run allocates nothing for it.
type powTable []float64

// maxPowTable caps the table. The exponents a run needs grow like
// log(λ(Δ+1))/ε, so a tiny ε would otherwise allocate and fill an
// unbounded table before the first round, where no deadline can stop it;
// 4096 entries cover ε ≥ 0.0034 at Δ = 10⁶.
const maxPowTable = 1 << 12

func newPowTable(a *congest.Arena, eps float64, size int) powTable {
	t := powTable(a.Float64s(min(size, maxPowTable)))
	for e := range t {
		t[e] = math.Pow(1+eps, float64(e))
	}
	return t
}

// at returns (1+ε)^e.
func (t powTable) at(eps float64, e int32) float64 {
	if e >= 0 && int(e) < len(t) {
		return t[e]
	}
	return math.Pow(1+eps, float64(e))
}

// partialIterations returns the Lemma 4.1 iteration count r: the integer
// with (1+ε)^{r-1} ≤ λ(Δ+1) < (1+ε)^r, or 0 when λ < 1/(Δ+1) (in which
// case the lemma sets S = ∅).
func partialIterations(eps, lambda float64, delta int) int {
	target := lambda * float64(delta+1)
	if target < 1 {
		return 0
	}
	// The estimate is taken in the base math.Pow sees, the rounded 1+ε, so
	// the corrections below take a step or two. Their bound keeps them
	// finite for ε near the float64 epsilon, where one step of an exponent
	// in the quadrillions is lost in math.Pow's rounding.
	r := int(math.Floor(math.Log(target)/math.Log(1+eps))) + 1
	for i := 0; i < 64 && r > 1 && math.Pow(1+eps, float64(r-1)) > target; i++ {
		r--
	}
	for i := 0; i < 64 && math.Pow(1+eps, float64(r)) <= target; i++ {
		r++
	}
	return r
}

// extensionIterations returns the per-phase iteration count of Lemma 4.6:
// r = ⌈log_γ(Δ+1)⌉ + 1, which guarantees the sampling probability reaches 1.
func extensionIterations(gamma float64, delta int) int {
	r := int(math.Ceil(math.Log(float64(delta+1))/math.Log(gamma))) + 1
	if r < 1 {
		r = 1
	}
	return r
}

// extensionPhases returns t = ⌈log_γ(1/λ)⌉, the number of Γ-phases of
// Lemma 4.6.
func extensionPhases(gamma, lambda float64) int {
	t := int(math.Ceil(math.Log(1/lambda) / math.Log(gamma)))
	if t < 1 {
		t = 1
	}
	return t
}

// xValue reconstructs τ·(1+ε)^exp/(Δ+1) from a packing message.
func (pr *proc) xValue(tau int64, exp int32) float64 {
	return float64(tau) * pr.pow.at(pr.p.eps, exp) / float64(pr.delta+1)
}

// absorb processes an inbox, updating neighbor caches. It reports whether
// any message implied that this node is now dominated. The sender's
// position in the neighbor caches comes precomputed with each packet
// (Incoming.Idx), so there is no per-message search.
func (pr *proc) absorb(in []congest.Incoming) (dominatedNow bool) {
	for _, m := range in {
		i := m.Idx
		switch m.P.Tag {
		case congest.TagPacking:
			tau, exp, _ := packingFields(m.P)
			pr.nbrX[i] = pr.xValue(tau, exp)
		case congest.TagWeight:
			w, _ := weightFields(m.P)
			pr.nbrW[i] = w
		case congest.TagJoin:
			if pr.nbrDom != nil {
				pr.nbrDom[i] = true
			}
			dominatedNow = true
		case congest.TagDom:
			if pr.nbrDom != nil {
				pr.nbrDom[i] = true
			}
		case congest.TagRequest:
			pr.requested = true
		}
	}
	return dominatedNow
}

// bigX returns X_u = Σ_{v∈N+(u)} x_v over the full closed neighborhood.
func (pr *proc) bigX() float64 {
	sum := pr.x
	for _, xv := range pr.nbrX {
		sum += xv
	}
	return sum
}

// bigXUndominated returns X_u restricted to undominated closed neighbors
// (the Lemma 4.6 quantity).
func (pr *proc) bigXUndominated() float64 {
	var sum float64
	if !pr.dom {
		sum = pr.x
	}
	for i, xv := range pr.nbrX {
		if !pr.nbrDom[i] {
			sum += xv
		}
	}
	return sum
}

// Step implements congest.Proc.
func (pr *proc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	switch pr.st {
	case stInit:
		s.Broadcast(packWeight(pr.ni.Weight, int32(pr.ni.Degree())))
		pr.st = stSetup
		return false

	case stSetup:
		pr.absorb(in)
		pr.computeTau()
		pr.x = float64(pr.tau) / float64(pr.delta+1)
		pr.x41 = pr.x
		if pr.r > 0 {
			s.Broadcast(packPacking(pr.tau, 0, 0))
			pr.st = stIterA
			return false
		}
		return pr.afterPartial(s, true /* broadcastPacking */)

	case stIterA:
		pr.absorb(in)
		if !pr.inS && pr.bigX() >= pr.threshold() {
			pr.inS = true
			pr.dom = true
			s.Broadcast(packJoin())
		}
		pr.st = stIterB
		return false

	case stIterB:
		if pr.absorb(in) {
			pr.dom = true
		}
		pr.iter++
		if !pr.dom || (pr.p.noFreeze && !pr.inS) {
			// Paper, step 3: undominated nodes raise their packing value.
			// The raise of the final iteration is included — property (b)
			// needs x_v > λτ_v for every undominated node. (With the
			// noFreeze ablation, dominated non-members keep raising too,
			// which destroys packing feasibility.)
			pr.exp++
			pr.x *= 1 + pr.p.eps
			// The final raise is broadcast only when someone will read it:
			// the completion request round or the extension. Self/none
			// completions terminate everyone this round, so broadcasting
			// would only ship messages to terminated nodes.
			lastAndLocal := pr.iter == pr.r &&
				(pr.p.mode == completeSelf || pr.p.mode == completeNone)
			if !lastAndLocal {
				s.Broadcast(packPacking(pr.tau, int32(pr.exp), 0))
			}
		}
		if pr.iter < pr.r {
			pr.st = stIterA
			return false
		}
		return pr.afterPartial(s, false)

	case stCompReq:
		// Inbox may contain the final packing broadcasts; absorb for
		// completeness of the local view.
		pr.absorb(in)
		if !pr.dom {
			if pr.argmin == pr.ni.ID {
				pr.inSP = true
				pr.dom = true
			} else {
				s.Send(pr.argmin, packRequest())
				// The τ-neighbor joins next round, so v is dominated.
				pr.dom = true
			}
		}
		pr.st = stCompJoin
		return false

	case stCompJoin:
		pr.absorb(in)
		if pr.requested && !pr.inS {
			pr.inSP = true
			pr.dom = true
		}
		pr.st = stDone
		return true

	case stExtA:
		pr.absorb(in)
		if pr.iterIdx == 0 {
			pr.beginPhase()
		} else {
			pr.prob = math.Min(pr.prob*pr.p.gamma, 1)
			if pr.inGamma && pr.bigXUndominated() < pr.gammaThreshold() {
				pr.inGamma = false
			}
		}
		if pr.iterIdx == pr.extIters-1 {
			// Last iteration of the phase samples with probability 1
			// (the proof of Lemma 4.6 relies on it).
			pr.prob = 1
		}
		if pr.inGamma && pr.ni.Rand.Bernoulli(pr.prob) {
			if !pr.dom {
				// First domination happens now, by its own sampling; the
				// same-iteration sampled neighbors arrive next round.
				pr.cvSelf = true
			}
			pr.inSP = true
			pr.dom = true
			pr.inGamma = false
			s.Broadcast(packJoin())
		}
		pr.st = stExtB
		return false

	case stExtB:
		wasDom := pr.dom
		joins := 0
		for _, m := range in {
			if m.P.Tag == congest.TagJoin {
				joins++
			}
		}
		if pr.absorb(in) {
			pr.dom = true
		}
		switch {
		case pr.cvSelf:
			pr.cv = 1 + joins
			pr.cvSet = true
			pr.cvSelf = false
		case !wasDom && pr.dom && !pr.cvSet:
			pr.cv = joins
			pr.cvSet = true
		}
		last := pr.phaseIdx == pr.extPhases-1 && pr.iterIdx == pr.extIters-1
		if pr.dom && !wasDom && !last {
			s.Broadcast(packDom())
		}
		pr.iterIdx++
		if pr.iterIdx == pr.extIters {
			pr.iterIdx = 0
			pr.phaseIdx++
		}
		if pr.phaseIdx == pr.extPhases {
			pr.st = stDone
			return true
		}
		pr.st = stExtA
		return false
	}
	return true
}

// computeTau derives τ_v and the minimum-weight closed neighbor from the
// weight messages absorbed during setup. Ties break toward the lower ID so
// the algorithm is deterministic.
func (pr *proc) computeTau() {
	pr.tau, pr.argmin = pr.ni.Weight, pr.ni.ID
	for i, u := range pr.ni.Neighbors {
		w := pr.nbrW[i]
		if w < pr.tau || (w == pr.tau && int(u) < pr.argmin) {
			pr.tau, pr.argmin = w, int(u)
		}
	}
}

// threshold returns the Lemma 4.1 join threshold w_u/(1+ε).
func (pr *proc) threshold() float64 {
	return float64(pr.ni.Weight) / (1 + pr.p.eps)
}

// gammaThreshold returns the Lemma 4.6 Γ-membership threshold w_u/γ, with a
// tiny relative slack. The slack matters: the termination proof of the lemma
// rests on the τ-neighbor of an undominated node reaching X_u ≥ w_u/γ, and
// with parameters like γ^t·λ = 1 that comparison lands exactly on the
// boundary, where float rounding must not be allowed to flip it.
func (pr *proc) gammaThreshold() float64 {
	return float64(pr.ni.Weight) / pr.p.gamma * (1 - 1e-9)
}

// afterPartial transitions out of the Lemma 4.1 phase. broadcastPacking is
// set when coming straight from setup (r == 0) and the extension still needs
// the initial packing values on the wire.
func (pr *proc) afterPartial(s *congest.Sender, broadcastPacking bool) bool {
	pr.x41 = pr.x
	switch pr.p.mode {
	case completeNone:
		pr.st = stDone
		return true
	case completeSelf:
		if !pr.dom {
			pr.inSP = true
			pr.dom = true
		}
		pr.st = stDone
		return true
	case completeRequest:
		pr.st = stCompReq
		return false
	case completeExtension:
		if broadcastPacking {
			s.Broadcast(packPacking(pr.tau, int32(pr.exp), 0))
		}
		if pr.dom {
			// The extension maintains X_u over undominated nodes only, so
			// neighbors must learn who is already dominated.
			s.Broadcast(packDom())
		}
		pr.st = stExtA
		return false
	}
	pr.st = stDone
	return true
}

// beginPhase starts Γ-phase phaseIdx: rescale undominated packing values by
// γ (for every phase after the first), reset the sampling probability, and
// recompute Γ membership.
func (pr *proc) beginPhase() {
	if pr.phaseIdx > 0 {
		if !pr.dom {
			pr.x *= pr.p.gamma
		}
		for i := range pr.nbrX {
			if !pr.nbrDom[i] {
				pr.nbrX[i] *= pr.p.gamma
			}
		}
	}
	pr.prob = 1 / float64(pr.delta+1)
	pr.inGamma = !pr.inS && !pr.inSP && pr.bigXUndominated() >= pr.gammaThreshold()
}

// Output implements congest.Proc.
func (pr *proc) Output() Output {
	return Output{
		InDS:              pr.inS || pr.inSP,
		InPartial:         pr.inS,
		InExtension:       pr.inSP,
		Dominated:         pr.dom,
		Packing:           pr.x41,
		Tau:               pr.tau,
		SampledDominators: pr.cv,
	}
}
