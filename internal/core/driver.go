package core

// This file is the one rank driver: each rank's feed pulls actions off its
// trace stream and lowers them into sim micro-ops through the backend's
// TaskOps. The engine calls the feed exactly when the previous action's ops
// have drained, so action counts and trace errors land at the simulated time
// the previous action completes. Malformed traces are reported as structured
// errors instead of panics.

import (
	"errors"
	"fmt"

	"tireplay/internal/sim"
	"tireplay/internal/trace"
)

// Sentinel causes of trace replay failures, matchable with errors.Is.
var (
	// ErrNoOutstandingRequest reports a wait action with no nonblocking
	// operation left to wait on.
	ErrNoOutstandingRequest = errors.New("wait with no outstanding request")
	// ErrUnsupportedAction reports an action kind the driver cannot replay.
	// It is the trace package's sentinel, which every stream's check
	// reports for such a kind.
	ErrUnsupportedAction = trace.ErrUnsupportedAction
)

// TraceError reports a malformed trace detected while replaying one rank.
// It is surfaced through Replay (and hence Scenario.Run) wrapped, so callers
// can match it with errors.As and its cause with errors.Is.
type TraceError struct {
	// Backend is the name of the backend that was replaying ("ground" for
	// the ground-truth emulation).
	Backend string
	// Rank is the rank whose stream was malformed.
	Rank int
	// Kind is the offending action kind, when the failure is tied to one.
	Kind trace.Kind
	// Err is the underlying cause.
	Err error
}

func (e *TraceError) Error() string {
	return fmt.Sprintf("%s replay, rank %d, action %q: %v", e.Backend, e.Rank, e.Kind, e.Err)
}

func (e *TraceError) Unwrap() error { return e.Err }

// rankFeed returns the feed of rank's replay process. It decodes every
// action into one record and checks none: the stream yields only actions
// valid in the communicator and rank (see trace.Stream), so an out-of-range
// peer or root in a trace surfaces as a trace error of the stream instead
// of a backend panic (or a hang on a mailbox nobody serves).
func rankFeed(ops TaskOps, backend string, rank int, stream trace.Stream, actions *int64) sim.Feed {
	npending := 0
	var a trace.Action
	return func(prog *sim.Prog) (bool, error) {
		ok, err := stream.Next(&a)
		if err != nil {
			te := &TraceError{Backend: backend, Rank: rank, Err: fmt.Errorf("reading stream: %w", err)}
			if errors.Is(err, ErrUnsupportedAction) {
				te.Kind = a.Kind // the stream hands the rejected action back
			}
			return false, te
		}
		if !ok {
			return false, nil
		}
		// The engine is single-threaded (lockstep), so the shared counter
		// needs no synchronization.
		*actions++
		if err := Lower(ops, prog, &a, &npending); err != nil {
			return false, &TraceError{Backend: backend, Rank: rank, Kind: a.Kind, Err: err}
		}
		return true, nil
	}
}

// Lower appends the micro-ops of action a to p through ops. Nonblocking
// operations are queued on the program's pending FIFO and consumed FIFO by
// wait/waitall, matching how the trace acquisition records MPI_Wait on the
// oldest outstanding request; wait-any consumes whichever pending operation
// completes first, and waitsome is k successive wait-anys. *npending tracks
// the FIFO's depth across a rank's actions, which is all the
// no-outstanding-request check needs. Lower returns the cause of a malformed
// action (ErrNoOutstandingRequest, ErrUnsupportedAction); callers wrap it in
// a TraceError naming the rank.
func Lower(ops TaskOps, p *sim.Prog, a *trace.Action, npending *int) error {
	switch a.Kind {
	case trace.Init, trace.Finalize:
		// Structural markers: no simulated cost.
	case trace.Compute:
		ops.Compute(p, a.Instructions)
	case trace.Send:
		ops.Send(p, a.Peer, a.Bytes)
	case trace.ISend:
		ops.Isend(p, a.Peer, a.Bytes)
		*npending++
	case trace.Recv:
		ops.Recv(p, a.Peer)
	case trace.IRecv:
		ops.Irecv(p, a.Peer)
		*npending++
	case trace.Wait:
		if *npending == 0 {
			return ErrNoOutstandingRequest
		}
		p.WaitPending()
		*npending--
	case trace.WaitAll:
		p.WaitAllPending()
		*npending = 0
	case trace.WaitAny:
		if *npending == 0 {
			return ErrNoOutstandingRequest
		}
		p.WaitAnyPending()
		*npending--
	case trace.WaitSome:
		if a.Count > *npending {
			return fmt.Errorf("%w: waitsome of %d with %d outstanding", ErrNoOutstandingRequest, a.Count, *npending)
		}
		for i := 0; i < a.Count; i++ {
			p.WaitAnyPending()
		}
		*npending -= a.Count
	case trace.Barrier:
		ops.Barrier(p)
	case trace.Bcast:
		ops.Bcast(p, a.Bytes, a.Root)
	case trace.Reduce:
		ops.Reduce(p, a.Bytes, a.Root)
	case trace.AllReduce:
		ops.AllReduce(p, a.Bytes)
	case trace.AllToAll:
		ops.AllToAll(p, a.Bytes)
	case trace.Gather:
		ops.Gather(p, a.Bytes, a.Root)
	case trace.AllGather:
		ops.AllGather(p, a.Bytes)
	case trace.AllToAllV:
		ops.AllToAllV(p, a.Volumes)
	case trace.AllGatherV:
		ops.AllGatherV(p, a.Volumes)
	default:
		return ErrUnsupportedAction
	}
	return nil
}
