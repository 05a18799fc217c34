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
//
// Sends and receives match in FIFO order per mailbox, as in SimGrid/SMPI.
// The space keeps one match queue per destination rank, holding the comms
// posted toward that rank and not yet matched, from every source, in post
// order; a mailbox's unmatched comms are all sends or all receives, so the
// first queued comm on a mailbox is the one a new post either matches or
// queues behind. Like an MPI runtime's posted and unexpected queues, these
// stay short in real codes, and a post touches only its destination's queue.
type PairSpace struct {
	id     uint64
	prefix string
	hosts  []*Host      // pinned destination hosts; nil = unpinned
	queues []matchQueue // indexed by destination rank, grown on first post
}

// matchQueue is a FIFO of unmatched comms linked through Comm.next.
type matchQueue struct{ head, tail *Comm }

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

// space returns the pair space m belongs to.
func (e *Engine) space(m Mbox) *PairSpace { return e.spaces[uint64(m)>>(2*mboxRankBits)-1] }

// queue returns the match queue of m's destination rank.
func (s *PairSpace) queue(m Mbox) *matchQueue {
	dst := int(uint64(m) & mboxRankMask)
	if dst >= len(s.queues) {
		s.queues = append(s.queues, make([]matchQueue, dst+1-len(s.queues))...)
	}
	return &s.queues[dst]
}

// take unlinks and returns the oldest comm queued on m if it is a send
// (sends) or a receive (!sends), and otherwise returns nil. The walk passes
// the comms of other sources toward the same rank: O(k) for k of them.
func (q *matchQueue) take(m Mbox, sends bool) *Comm {
	var prev *Comm
	for c := q.head; c != nil; prev, c = c, c.next {
		if c.box != m {
			continue
		}
		if c.hasSend != sends {
			return nil
		}
		if prev == nil {
			q.head = c.next
		} else {
			prev.next = c.next
		}
		if q.tail == c {
			q.tail = prev
		}
		c.next = nil
		c.queued = false
		return c
	}
	return nil
}

func (q *matchQueue) push(c *Comm) {
	c.queued = true
	if q.tail == nil {
		q.head = c
	} else {
		q.tail.next = c
	}
	q.tail = c
}

// boxName renders a mailbox id for diagnostics. Pair names are formatted on
// demand and never stored.
func (e *Engine) boxName(m Mbox) string {
	return fmt.Sprintf("%s:%d>%d", e.space(m).prefix, (uint64(m)>>mboxRankBits)&mboxRankMask, uint64(m)&mboxRankMask)
}

// pinnedHost returns the host m is pinned to, or nil: the declared
// destination of receives, which lets detached sends start early.
func (s *PairSpace) pinnedHost(m Mbox) *Host {
	if s.hosts == nil {
		return nil
	}
	return s.hosts[uint64(m)&mboxRankMask]
}
