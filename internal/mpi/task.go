package mpi

import (
	"fmt"

	"tireplay/internal/sim"
)

// TaskRank compiles one rank's MPI calls into sim micro-ops appended to a
// Prog, which the engine interprets inline from the event loop. Small
// messages follow the eager protocol — the sender detaches after its local
// costs — and large ones the rendezvous protocol, blocking until the
// transfer completes; collectives lower to the point-to-point schedules of
// coll.go on the collective mailbox namespace.
//
// Register convention: register 0 holds the send side of a blocking or
// exchanged operation, register 1 the receive side. Both are always waited
// and released within the action that allocated them; only the pending FIFO
// (Isend/Irecv) crosses actions.
type TaskRank struct {
	world *World
	rank  int
	prog  *sim.Prog // program currently being emitted into
}

// TaskRank returns the compiler for one rank.
func (w *World) TaskRank(rank int) *TaskRank {
	if rank < 0 || rank >= len(w.hosts) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, len(w.hosts)))
	}
	return &TaskRank{world: w, rank: rank}
}

// Size returns the communicator size.
func (tr *TaskRank) Size() int { return tr.world.Size() }

func (tr *TaskRank) bind(p *sim.Prog) { tr.prog = p }

// Compute computes instr instructions at the host's calibrated rate.
func (tr *TaskRank) Compute(p *sim.Prog, instr float64) {
	p.Exec(instr)
}

// Send is MPI_Send under the configured model: below the eager threshold
// the send detaches after the local costs only; at or above it, it blocks
// until the transfer completes (rendezvous).
func (tr *TaskRank) Send(p *sim.Prog, dst int, bytes float64) {
	tr.bind(p)
	tr.emitSend(tr.world.p2pBox(tr.rank, dst), bytes)
}

// Isend is the nonblocking send, queued on the pending FIFO. Eager sends
// complete immediately: they push an already-done placeholder so trace waits
// stay FIFO-aligned. Rendezvous sends complete when the transfer does.
func (tr *TaskRank) Isend(p *sim.Prog, dst int, bytes float64) {
	tr.bind(p)
	cfg := tr.world.cfg
	if cfg.SendOverhead > 0 {
		p.Sleep(cfg.SendOverhead)
	}
	box := tr.world.p2pBox(tr.rank, dst)
	if bytes < cfg.eagerThreshold() {
		tr.emitEagerCopy(bytes)
		p.PutDetached(box, bytes)
		p.PushPendingDone()
		return
	}
	p.PutPending(box, bytes)
}

// Recv blocks until a message from src has fully arrived.
func (tr *TaskRank) Recv(p *sim.Prog, src int) {
	tr.bind(p)
	tr.emitRecv(tr.world.p2pBox(src, tr.rank))
}

// Irecv posts a nonblocking receive from src onto the pending FIFO.
func (tr *TaskRank) Irecv(p *sim.Prog, src int) {
	tr.bind(p)
	p.GetPending(tr.world.p2pBox(src, tr.rank))
}

// Barrier synchronizes all ranks: a binomial-tree gather of empty messages
// to rank 0 followed by a binomial-tree release.
func (tr *TaskRank) Barrier(p *sim.Prog) {
	tr.bind(p)
	barrierColl(tr)
}

// Bcast broadcasts bytes from root using the configured algorithm
// (binomial tree by default).
func (tr *TaskRank) Bcast(p *sim.Prog, bytes float64, root int) {
	tr.bind(p)
	bcastWithColl(tr, tr.world.cfg.Bcast, bytes, root)
}

// Reduce combines bytes from every rank onto root along a binomial tree.
func (tr *TaskRank) Reduce(p *sim.Prog, bytes float64, root int) {
	tr.bind(p)
	reduceTree(tr, root, bytes)
}

// AllReduce combines and redistributes bytes across all ranks using the
// configured algorithm. The default, recursive doubling, runs log2 P
// exchange rounds on power-of-two communicators and falls back to
// Reduce+Bcast otherwise, as common MPI runtimes do for irregular sizes.
func (tr *TaskRank) AllReduce(p *sim.Prog, bytes float64) {
	tr.bind(p)
	allReduceWithColl(tr, tr.world.cfg.AllReduce, bytes)
}

// AllToAll exchanges bytes with every other rank using the pairwise-exchange
// algorithm.
func (tr *TaskRank) AllToAll(p *sim.Prog, bytes float64) {
	tr.bind(p)
	alltoallPairwise(tr, bytes)
}

// Gather collects bytes from every rank to root (linear algorithm: each
// non-root sends once, the root receives P-1 messages).
func (tr *TaskRank) Gather(p *sim.Prog, bytes float64, root int) {
	tr.bind(p)
	gatherLinear(tr, bytes, root)
}

// AllGather uses the ring algorithm: P-1 steps, each rank forwarding bytes
// to its successor while receiving from its predecessor.
func (tr *TaskRank) AllGather(p *sim.Prog, bytes float64) {
	tr.bind(p)
	allGatherRing(tr, bytes)
}

// AllToAllV is the vector all-to-all: vols[k] is the number of bytes this
// rank sends to rank k (vols[rank] is ignored). It uses the same
// pairwise-exchange schedule as AllToAll with per-pair volumes.
func (tr *TaskRank) AllToAllV(p *sim.Prog, vols []float64) {
	tr.bind(p)
	alltoallvPairwise(tr, vols)
}

// AllGatherV is the vector all-gather: vols[k] is the number of bytes rank k
// contributes. Every rank must pass the same vector (as MPI requires of the
// recvcounts argument). It uses the same ring schedule as AllGather with
// per-origin block sizes.
func (tr *TaskRank) AllGatherV(p *sim.Prog, vols []float64) {
	tr.bind(p)
	allGatherVRing(tr, vols)
}

// emitSend lowers a blocking protocol send.
func (tr *TaskRank) emitSend(box sim.Mbox, bytes float64) {
	cfg := tr.world.cfg
	if cfg.SendOverhead > 0 {
		tr.prog.Sleep(cfg.SendOverhead)
	}
	if bytes < cfg.eagerThreshold() {
		tr.emitEagerCopy(bytes)
		tr.prog.PutDetached(box, bytes)
		return
	}
	tr.prog.Put(box, bytes, 0)
	tr.prog.WaitReg(0)
}

// emitRecv lowers a blocking receive, charging the receive overhead once
// the data has arrived.
func (tr *TaskRank) emitRecv(box sim.Mbox) {
	cfg := tr.world.cfg
	tr.prog.Get(box, 1)
	tr.prog.WaitReg(1)
	if cfg.RecvOverhead > 0 {
		tr.prog.Sleep(cfg.RecvOverhead)
	}
}

// emitEagerCopy charges the sender-side memory copy of an eager send when
// the model includes it.
func (tr *TaskRank) emitEagerCopy(bytes float64) {
	cfg := tr.world.cfg
	if cfg.MemcpyBandwidth > 0 {
		tr.prog.Sleep(cfg.MemcpyLatency + bytes/cfg.MemcpyBandwidth)
	}
}

// The collective primitives: protocol-following point-to-point operations
// on the dedicated collective namespace, so tree messages never interleave
// with application messages. The algorithms of coll.go are written against
// them.

func (tr *TaskRank) sendColl(dst int, bytes float64) {
	tr.emitSend(tr.world.collBox(tr.rank, dst), bytes)
}

func (tr *TaskRank) recvColl(src int) {
	tr.emitRecv(tr.world.collBox(src, tr.rank))
}

func (tr *TaskRank) sendRecvColl(dst int, bytes float64, src int) {
	cfg := tr.world.cfg
	if cfg.SendOverhead > 0 {
		tr.prog.Sleep(cfg.SendOverhead)
	}
	rendezvous := bytes >= cfg.eagerThreshold()
	if rendezvous {
		tr.prog.Put(tr.world.collBox(tr.rank, dst), bytes, 0)
	} else {
		tr.emitEagerCopy(bytes)
		tr.prog.PutDetached(tr.world.collBox(tr.rank, dst), bytes)
	}
	tr.recvColl(src)
	if rendezvous {
		tr.prog.WaitReg(0)
	}
}

// putColl is a fully blocking send on the collective namespace, bypassing
// the eager/rendezvous protocol split: the chain broadcast's head uses it to
// pace segment injection.
func (tr *TaskRank) putColl(dst int, bytes float64) {
	tr.prog.Put(tr.world.collBox(tr.rank, dst), bytes, 0)
	tr.prog.WaitReg(0)
}
