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
	"errors"
	"fmt"
	"math"
	"strconv"
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

// kindNames is indexed by Kind.
var kindNames = [...]string{
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
	if uint(k) < uint(len(kindNames)) {
		return kindNames[k]
	}
	return "Kind(" + strconv.Itoa(int(k)) + ")"
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
	var buf [64]byte
	return string(a.appendText(buf[:0]))
}

// appendText appends the action's text line, without its newline, to buf:
// the inverse of the grammar ParseLine reads. Integral scalar volumes print
// as plain digits, fractional ones in the shortest form that parses back
// exactly, and vector volumes always in that shortest form.
func (a *Action) appendText(buf []byte) []byte {
	buf = strconv.AppendInt(append(buf, 'p'), int64(a.Rank), 10)
	buf = append(append(buf, ' '), a.Kind.String()...)
	switch a.Kind {
	case Compute:
		buf = appendDecimal(append(buf, ' '), a.Instructions)
	case Send, ISend:
		buf = strconv.AppendInt(append(buf, " p"...), int64(a.Peer), 10)
		buf = appendDecimal(append(buf, ' '), a.Bytes)
	case Recv, IRecv:
		buf = strconv.AppendInt(append(buf, " p"...), int64(a.Peer), 10)
		if !(a.Bytes < 0) { // a negative size is the v1 form's unknown one; NaN prints
			buf = appendDecimal(append(buf, ' '), a.Bytes)
		}
	case Bcast, Reduce, Gather:
		buf = appendDecimal(append(buf, ' '), a.Bytes)
		if a.Root != 0 {
			buf = strconv.AppendInt(append(buf, ' '), int64(a.Root), 10)
		}
	case AllReduce, AllToAll, AllGather:
		buf = appendDecimal(append(buf, ' '), a.Bytes)
	case AllToAllV, AllGatherV:
		for _, v := range a.Volumes {
			buf = strconv.AppendFloat(append(buf, ' '), v, 'f', -1, 64)
		}
	case WaitSome:
		buf = strconv.AppendInt(append(buf, ' '), int64(a.Count), 10)
	}
	return buf
}

// appendDecimal appends a scalar volume. An integral or non-finite v prints
// as fmt's %.0f prints it (digits, "-0", "NaN", "+Inf"), integers below
// 2^63 without going through the float formatter; any other v prints in
// the shortest decimal form that parses back to it exactly.
func appendDecimal(buf []byte, v float64) []byte {
	u := math.Abs(v)
	if !(u < 1<<63) { // integral from 2^63 on, infinite, or NaN
		return strconv.AppendFloat(buf, v, 'f', 0, 64)
	}
	if n := uint64(u); float64(n) == u {
		if math.Signbit(v) {
			buf = append(buf, '-')
		}
		return strconv.AppendUint(buf, n, 10)
	}
	return strconv.AppendFloat(buf, v, 'f', -1, 64)
}

// ErrUnsupportedAction is the cause of the rejection of an action whose
// kind is none of Init through WaitSome, matchable with errors.Is.
var ErrUnsupportedAction = errors.New("unsupported action kind")

// Validate checks the internal consistency of a single action. Volumes must
// be finite and non-negative; a recv's size need only be finite, since -1
// marks it unknown (the v1 form). A kind outside Init through WaitSome is
// rejected too: no text, TIB or replay form exists for it.
func (a *Action) Validate() error {
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
	case Init, Finalize, Wait, WaitAll, WaitAny, Barrier:
	default:
		return fmt.Errorf("trace: p%d with %w %s", a.Rank, ErrUnsupportedAction, a.Kind)
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
func (a *Action) ValidateIn(world int) error {
	if err := a.Validate(); err != nil {
		return err
	}
	return a.validateSized(world)
}

// ValidateFor is ValidateIn for an action read from the stream of rank:
// it also rejects an action of another rank. It is the one check of the
// Stream contract. rank < 0 accepts any rank.
func (a *Action) ValidateFor(rank, world int) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if err := a.validateSized(world); err != nil {
		return err
	}
	if rank >= 0 && a.Rank != rank {
		return a.foreign(rank)
	}
	return nil
}

// foreign reports a as an action of another rank than the stream's.
func (a *Action) foreign(rank int) error {
	return fmt.Errorf("trace: p%d %s in the trace of rank %d", a.Rank, a.Kind, rank)
}

// validateSized is the part of ValidateIn that Validate does not cover.
func (a *Action) validateSized(world int) error {
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
