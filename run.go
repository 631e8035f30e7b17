package arbods

import (
	"context"

	"arbods/internal/congest"
	"arbods/internal/faultinject"
)

// This file is the engine-level run surface of the facade: the generic
// Run/RunContext entry points plus the types a caller needs to drive
// custom congest procs through package arbods alone, without reaching
// into internal/congest. The algorithm wrappers in algorithms.go are the
// paper's surface; this is the simulator's.

// NodeInfo is the local knowledge a node starts with: ID, neighbor list,
// weight, the globally known parameters, its private random stream, and
// the run's Arena.
type NodeInfo = congest.NodeInfo

// Incoming is one received packet, tagged with its sender and the
// sender's position in the receiver's neighbor list.
type Incoming = congest.Incoming

// Sender collects a node's outgoing packets for the current round (Send,
// Broadcast).
type Sender = congest.Sender

// Packet is the wire-word message representation: a Tag, at most two
// payload words, and the CONGEST bit cost fixed at pack time.
type Packet = congest.Packet

// Tag identifies a message's wire format. Library algorithms occupy the
// low values; custom procs may use the headroom up to MaxTags.
type Tag = congest.Tag

// MaxTags bounds the tag space; MsgTagBits is the bit cost charged for
// every message's tag header.
const (
	MaxTags    = congest.MaxTags
	MsgTagBits = congest.MsgTagBits
)

// TagOnly returns the packet for a payload-free message: just the
// MsgTagBits type header.
func TagOnly(tag Tag) Packet { return congest.TagOnly(tag) }

// BitsUint returns the number of bits needed to encode x (at least 1);
// BitsInt adds a sign bit. Custom packets must charge their payloads at
// these rates for the simulator's bandwidth accounting to be meaningful.
func BitsUint(x uint64) int { return congest.BitsUint(x) }

// BitsInt returns the number of bits needed to encode x with a sign bit.
func BitsInt(x int64) int { return congest.BitsInt(x) }

// Proc is the per-node state machine of a distributed algorithm; Factory
// builds one per node before round 0.
type Proc[O any] = congest.Proc[O]

// Factory builds the per-node proc from its starting knowledge.
type Factory[O any] = congest.Factory[O]

// RunResult is the generic simulator result for custom-proc runs. (The
// non-generic Result alias fixes O to the library's NodeOutput.)
type RunResult[O any] = congest.Result[O]

// Run executes the algorithm built by factory on g under the CONGEST
// simulator. The transcript is bit-identical for every worker count and
// for transient vs reused Runner state. Run never cancels; it is the
// context-free convenience over RunContext.
func Run[O any](g *Graph, factory Factory[O], opts ...Option) (*RunResult[O], error) {
	return congest.Run(g, factory, opts...)
}

// RunContext is Run with a cancellation context, checked at the
// per-round barrier: after ctx is canceled (deadline, disconnected
// client, caller Cancel) the run returns ctx.Err() within one round. A
// canceled run has no partial results, and a Runner attached with
// WithRunner is immediately reusable — its next run is bit-identical to
// one on a fresh Runner. Go methods cannot be type-parameterized, so
// there is no Runner.RunContext method form; RunContext(ctx, …,
// WithRunner(r)) is that spelling.
func RunContext[O any](ctx context.Context, g *Graph, factory Factory[O], opts ...Option) (*RunResult[O], error) {
	return congest.RunContext(ctx, g, factory, opts...)
}

// WithContext attaches ctx to a run, making the option-based algorithm
// surface (WeightedDeterministic and friends, the server's solve path)
// cancellable without signature changes: the engine checks ctx once per
// round, so a canceled run returns ctx.Err() within one round. See
// RunContext for the full contract; the two spellings are equivalent.
func WithContext(ctx context.Context) Option { return congest.WithContext(ctx) }

// RunBatchContext is RunBatch under a context: once ctx dies, jobs not
// yet started fail with ctx.Err() in their slots and the first error in
// submission order is returned. Running jobs finish unless they thread
// the same ctx into their runs with WithContext. The cancellable batch
// form on a caller-owned pool is RunnerPool.BatchContext; the
// cancellable checkout is RunnerPool.GetContext.
func RunBatchContext(ctx context.Context, parallel int, jobs ...Job) error {
	return congest.RunBatchContext(ctx, parallel, jobs...)
}

// ErrPoolClosed is returned by RunnerPool.GetContext when the pool has
// been closed (RunnerPool.Get returns nil in the same situation): a
// caller blocked on checkout fails fast instead of waiting forever.
var ErrPoolClosed = congest.ErrPoolClosed

// ErrProcPanic is the sentinel wrapped by every recovered proc panic: a
// Factory, Step, or Output callback that panics fails its own run with a
// *ProcPanicError instead of crashing the process. Match the class with
// errors.Is(err, ErrProcPanic); reach the round, node, and captured stack
// with errors.As and *ProcPanicError. The Runner that hosted the run is
// quarantined — see RunnerPool.Put.
var ErrProcPanic = congest.ErrProcPanic

// ProcPanicError carries the details of a recovered proc panic: the round
// it interrupted (−1 outside the round loop), the node whose callback
// panicked (−1 for engine-internal faults), the panic value, and the
// panicking goroutine's stack.
type ProcPanicError = congest.ProcPanicError

// WithFaultInjection attaches a deterministic fault-injection registry to
// a run: the engine fires the "congest.step" failpoint once per round, so
// chaos tests can panic, delay, or fail a chosen round reproducibly. Runs
// without the option (or with a nil registry) pay a single comparison.
func WithFaultInjection(reg *faultinject.Registry) Option { return congest.WithFaultInjection(reg) }
