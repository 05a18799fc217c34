package sim

import "fmt"

// Mbox identifies a mailbox without a string name. Pair spaces (one per
// backend namespace, e.g. MPI's application and collective namespaces)
// encode (space, src rank, dst rank) directly into the integer, so a P-rank
// world needs no per-pair setup at all — the historical per-pair name
// precomputation and pinning was O(P²) strings and map entries, several GiB
// at 4096 ranks.
type Mbox uint64

const (
	mboxRankBits = 21 // 2M ranks per space
	mboxRankMask = 1<<mboxRankBits - 1
)

// PairSpace is a family of mailboxes indexed by a directed rank pair. When
// hosts is non-nil, the mailbox (src,dst) is pinned to hosts[dst]: detached
// (eager) sends start their transfer before the receive is posted, which is
// exactly the behaviour the paper's SMPI backend models for small messages.
type PairSpace struct {
	id     uint64
	prefix string
	hosts  []*Host // pinned destination hosts; nil = unpinned
}

// NewPairSpace registers a pair-mailbox namespace. prefix appears in
// diagnostics only (names render as "prefix:src>dst"). hosts, when non-nil,
// pins mailbox (src,dst) to hosts[dst] for eager-send semantics.
func (e *Engine) NewPairSpace(prefix string, hosts []*Host) *PairSpace {
	s := &PairSpace{id: uint64(len(e.spaces) + 1), prefix: prefix, hosts: hosts}
	e.spaces = append(e.spaces, s)
	return s
}

// Box returns the mailbox for the directed pair (src, dst).
func (s *PairSpace) Box(src, dst int) Mbox {
	if uint(src) > mboxRankMask || uint(dst) > mboxRankMask {
		panic(fmt.Sprintf("sim: pair mailbox rank out of range: (%d,%d)", src, dst))
	}
	return Mbox(s.id<<(2*mboxRankBits) | uint64(src)<<mboxRankBits | uint64(dst))
}

// mailbox is a rendezvous point where sends and receives match in FIFO
// order, as in SimGrid/SMPI. Mailboxes are created lazily on first use and
// recycled once both queues drain, so live memory tracks in-flight traffic
// rather than the quadratic number of rank pairs.
type mailbox struct {
	box   Mbox
	sends []*Comm // posted sends not yet matched by a recv
	recvs []*Comm // posted recvs not yet matched by a send
}

// box returns the mailbox for m, creating it (from the recycle pool if
// possible) on first use.
func (e *Engine) box(m Mbox) *mailbox {
	mb := e.boxes[m]
	if mb == nil {
		if n := len(e.boxPool); n > 0 {
			mb = e.boxPool[n-1]
			e.boxPool[n-1] = nil
			e.boxPool = e.boxPool[:n-1]
		} else {
			mb = &mailbox{}
		}
		mb.box = m
		e.boxes[m] = mb
	}
	return mb
}

// reapBox recycles a mailbox whose queues have both drained. The next post
// to the same Mbox simply recreates it, so this is purely a memory bound:
// long replays touch quadratically many pairs but keep only the active ones
// alive.
func (e *Engine) reapBox(mb *mailbox) {
	if len(mb.sends) != 0 || len(mb.recvs) != 0 {
		return
	}
	delete(e.boxes, mb.box)
	mb.box = 0
	mb.sends = mb.sends[:0]
	mb.recvs = mb.recvs[:0]
	e.boxPool = append(e.boxPool, mb)
}

// boxName renders a mailbox id for diagnostics. Pair names are formatted on
// demand and never stored.
func (e *Engine) boxName(m Mbox) string {
	s := e.spaces[uint64(m)>>(2*mboxRankBits)-1]
	return fmt.Sprintf("%s:%d>%d", s.prefix, (uint64(m)>>mboxRankBits)&mboxRankMask, uint64(m)&mboxRankMask)
}

// pinnedHost returns the host mb is pinned to, or nil: the declared
// destination of receives, which lets detached sends start early.
func (e *Engine) pinnedHost(mb *mailbox) *Host {
	s := e.spaces[uint64(mb.box)>>(2*mboxRankBits)-1]
	if s.hosts == nil {
		return nil
	}
	return s.hosts[uint64(mb.box)&mboxRankMask]
}
