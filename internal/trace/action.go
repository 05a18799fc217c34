// Package trace defines the time-independent trace format at the heart of
// the paper: per-rank streams of actions that carry only volumes — numbers
// of instructions computed between MPI calls and bytes exchanged by each MPI
// call — and no timestamps. Traces in this format can be acquired anywhere
// and replayed on any simulated platform.
//
// The text encoding follows the paper (Section 3.2/3.3):
//
//	p0 compute 956140
//	p0 send p1 1240
//	p1 recv p0 1240
//	p0 allreduce 40
//
// Both the v1 form of recv (no size: "p1 recv p0") and the v2 form with the
// message size appended — the format change introduced by the SMPI rewrite —
// are accepted. Rank tokens may be written "p3" or plain "3".
package trace

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the action types of the time-independent format.
type Kind int

// Action kinds. New kinds append after AllGather: the numeric values are the
// TIB wire encoding, so reordering would silently re-interpret old files.
const (
	Init Kind = iota
	Finalize
	Compute
	Send
	ISend
	Recv
	IRecv
	Wait
	WaitAll
	Barrier
	Bcast
	Reduce
	AllReduce
	AllToAll
	Gather
	AllGather
	// Kinds below require TIB v2 (vector collectives and wait-handle sets).
	AllToAllV
	AllGatherV
	WaitAny
	WaitSome
)

// maxKindV1 and maxKindV2 bound the kinds each TIB format version may carry.
const (
	maxKindV1 = AllGather
	maxKindV2 = WaitSome
)

var kindNames = map[Kind]string{
	Init:       "init",
	Finalize:   "finalize",
	Compute:    "compute",
	Send:       "send",
	ISend:      "isend",
	Recv:       "recv",
	IRecv:      "irecv",
	Wait:       "wait",
	WaitAll:    "waitall",
	Barrier:    "barrier",
	Bcast:      "bcast",
	Reduce:     "reduce",
	AllReduce:  "allreduce",
	AllToAll:   "alltoall",
	Gather:     "gather",
	AllGather:  "allgather",
	AllToAllV:  "alltoallv",
	AllGatherV: "allgatherv",
	WaitAny:    "waitany",
	WaitSome:   "waitsome",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// HasPeer reports whether actions of this kind carry a peer rank.
func (k Kind) HasPeer() bool {
	switch k {
	case Send, ISend, Recv, IRecv:
		return true
	}
	return false
}

// IsCollective reports whether the kind is a collective operation.
func (k Kind) IsCollective() bool {
	switch k {
	case Barrier, Bcast, Reduce, AllReduce, AllToAll, Gather, AllGather,
		AllToAllV, AllGatherV:
		return true
	}
	return false
}

// HasVolumes reports whether actions of this kind carry a per-peer byte
// vector (one entry per rank of the communicator).
func (k Kind) HasVolumes() bool {
	return k == AllToAllV || k == AllGatherV
}

// Action is one event of a time-independent trace.
type Action struct {
	// Rank is the MPI rank performing the action.
	Rank int
	// Kind is the action type.
	Kind Kind
	// Instructions is the compute volume (Compute actions only).
	Instructions float64
	// Peer is the destination (sends) or source (receives) rank; -1 when
	// not applicable.
	Peer int
	// Bytes is the message size for point-to-point actions and the per-rank
	// payload for collectives. For v1 recv actions the size is unknown and
	// recorded as -1: the replayer then uses the size of the matching send.
	Bytes float64
	// Root is the root rank of rooted collectives (Bcast, Reduce, Gather).
	Root int
	// Volumes is the per-peer byte vector of vector collectives: for
	// AllToAllV, Volumes[k] is what this rank sends to rank k; for
	// AllGatherV, Volumes[k] is rank k's contribution (identical on every
	// rank). One entry per rank of the communicator.
	Volumes []float64
	// Count is the completion count of WaitSome (how many of the oldest
	// outstanding requests to wait for).
	Count int
}

// Equal reports whether two actions are identical, comparing the volume
// vectors element-wise. Action is not a comparable type (Volumes is a
// slice); every structural comparison must go through Equal.
func (a Action) Equal(b Action) bool {
	if a.Rank != b.Rank || a.Kind != b.Kind || a.Instructions != b.Instructions ||
		a.Peer != b.Peer || a.Bytes != b.Bytes || a.Root != b.Root || a.Count != b.Count {
		return false
	}
	if len(a.Volumes) != len(b.Volumes) {
		return false
	}
	for i := range a.Volumes {
		if a.Volumes[i] != b.Volumes[i] {
			return false
		}
	}
	return true
}

// String renders the action in the canonical trace text form.
func (a Action) String() string {
	switch a.Kind {
	case Compute:
		return fmt.Sprintf("p%d compute %.0f", a.Rank, a.Instructions)
	case Send, ISend:
		return fmt.Sprintf("p%d %s p%d %.0f", a.Rank, a.Kind, a.Peer, a.Bytes)
	case Recv, IRecv:
		if a.Bytes < 0 {
			return fmt.Sprintf("p%d %s p%d", a.Rank, a.Kind, a.Peer)
		}
		return fmt.Sprintf("p%d %s p%d %.0f", a.Rank, a.Kind, a.Peer, a.Bytes)
	case Bcast, Reduce, Gather:
		if a.Root != 0 {
			return fmt.Sprintf("p%d %s %.0f %d", a.Rank, a.Kind, a.Bytes, a.Root)
		}
		return fmt.Sprintf("p%d %s %.0f", a.Rank, a.Kind, a.Bytes)
	case AllReduce, AllToAll, AllGather:
		return fmt.Sprintf("p%d %s %.0f", a.Rank, a.Kind, a.Bytes)
	case AllToAllV, AllGatherV:
		var sb strings.Builder
		fmt.Fprintf(&sb, "p%d %s", a.Rank, a.Kind)
		for _, v := range a.Volumes {
			fmt.Fprintf(&sb, " %s", strconv.FormatFloat(v, 'f', -1, 64))
		}
		return sb.String()
	case WaitSome:
		return fmt.Sprintf("p%d %s %d", a.Rank, a.Kind, a.Count)
	default:
		return fmt.Sprintf("p%d %s", a.Rank, a.Kind)
	}
}

// Validate checks the internal consistency of a single action. Volumes must
// be finite and non-negative; a recv's size need only be finite, since -1
// marks it unknown (the v1 form).
func (a Action) Validate() error {
	if a.Rank < 0 {
		return fmt.Errorf("trace: negative rank %d", a.Rank)
	}
	switch a.Kind {
	case Compute:
		if f := volumeFault(a.Instructions); f != "" {
			return fmt.Errorf("trace: p%d compute with %s volume %g", a.Rank, f, a.Instructions)
		}
	case Send, ISend:
		if a.Peer < 0 {
			return fmt.Errorf("trace: p%d %s without destination", a.Rank, a.Kind)
		}
		if f := volumeFault(a.Bytes); f != "" {
			return fmt.Errorf("trace: p%d %s with %s size %g", a.Rank, a.Kind, f, a.Bytes)
		}
		if a.Peer == a.Rank {
			return fmt.Errorf("trace: p%d %s to itself", a.Rank, a.Kind)
		}
	case Recv, IRecv:
		if a.Peer < 0 {
			return fmt.Errorf("trace: p%d %s without source", a.Rank, a.Kind)
		}
		if a.Peer == a.Rank {
			return fmt.Errorf("trace: p%d %s from itself", a.Rank, a.Kind)
		}
		if math.IsNaN(a.Bytes) || math.IsInf(a.Bytes, 0) {
			return fmt.Errorf("trace: p%d %s with non-finite size %g", a.Rank, a.Kind, a.Bytes)
		}
	case Bcast, Reduce, AllReduce, AllToAll, Gather, AllGather:
		if f := volumeFault(a.Bytes); f != "" {
			return fmt.Errorf("trace: p%d %s with %s size %g", a.Rank, a.Kind, f, a.Bytes)
		}
		if a.Root < 0 {
			return fmt.Errorf("trace: p%d %s with negative root %d", a.Rank, a.Kind, a.Root)
		}
	case AllToAllV, AllGatherV:
		if len(a.Volumes) == 0 {
			return fmt.Errorf("trace: p%d %s without volume vector", a.Rank, a.Kind)
		}
		for i, v := range a.Volumes {
			if f := volumeFault(v); f != "" {
				return fmt.Errorf("trace: p%d %s with %s volume %g for rank %d", a.Rank, a.Kind, f, v, i)
			}
		}
	case WaitSome:
		if a.Count < 1 {
			return fmt.Errorf("trace: p%d waitsome with non-positive count %d", a.Rank, a.Count)
		}
	}
	return nil
}

// volumeFault names what makes v unusable as a volume, "negative" or
// "non-finite", or returns "" when v is usable.
func volumeFault(v float64) string {
	switch {
	case v >= 0 && v <= math.MaxFloat64: // false for NaN
		return ""
	case v < 0:
		return "negative"
	}
	return "non-finite"
}

// ValidateIn is Validate plus the checks that need the communicator size:
// peers and roots must name ranks inside the world, and volume vectors must
// carry exactly one entry per rank. world <= 0 skips the sized checks.
func (a Action) ValidateIn(world int) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if world <= 0 {
		return nil
	}
	if a.Rank >= world {
		return fmt.Errorf("trace: rank p%d outside communicator of size %d", a.Rank, world)
	}
	if a.Kind.HasPeer() && a.Peer >= world {
		return fmt.Errorf("trace: p%d %s peer p%d outside communicator of size %d",
			a.Rank, a.Kind, a.Peer, world)
	}
	switch a.Kind {
	case Bcast, Reduce, Gather:
		if a.Root >= world {
			return fmt.Errorf("trace: p%d %s root p%d outside communicator of size %d",
				a.Rank, a.Kind, a.Root, world)
		}
	case AllToAllV, AllGatherV:
		if len(a.Volumes) != world {
			return fmt.Errorf("trace: p%d %s carries %d volumes for a communicator of size %d",
				a.Rank, a.Kind, len(a.Volumes), world)
		}
	}
	return nil
}
