package msgreplay

import (
	"fmt"

	"tireplay/internal/sim"
)

// TaskRank compiles one rank's MSG-style replay calls into sim micro-ops:
// small messages are fire-and-forget asynchronous sends whose transfer
// starts only at match time, large ones block, and collectives synchronize
// every rank on the shared barrier before charging a monolithic formula.
// Registers: 0 for blocking sends, 1 for blocking receives; the pending
// FIFO carries isend/irecv across actions.
type TaskRank struct {
	world *World
	rank  int
}

// TaskRank returns the compiler for one rank.
func (w *World) TaskRank(rank int) *TaskRank {
	if rank < 0 || rank >= len(w.hosts) {
		panic(fmt.Sprintf("msgreplay: rank %d out of range [0,%d)", rank, len(w.hosts)))
	}
	return &TaskRank{world: w, rank: rank}
}

// Compute executes instructions at the host speed.
func (tr *TaskRank) Compute(p *sim.Prog, instr float64) {
	p.Exec(instr)
}

// Send reproduces the original action_send: below the threshold the message
// becomes a fire-and-forget asynchronous send (the transfer starts only at
// match time); at or above it, a blocking task send.
func (tr *TaskRank) Send(p *sim.Prog, dst int, bytes float64) {
	if bytes < tr.world.cfg.eagerThreshold() {
		p.PutDiscard(tr.world.box(tr.rank, dst), bytes)
		return
	}
	p.Put(tr.world.box(tr.rank, dst), bytes, 0)
	p.WaitReg(0)
}

// Isend posts an asynchronous send onto the pending FIFO, so explicit
// isend/wait trace pairs stay balanced.
func (tr *TaskRank) Isend(p *sim.Prog, dst int, bytes float64) {
	p.PutPending(tr.world.box(tr.rank, dst), bytes)
}

// Recv blocks until a message from src is fully received; with unpinned
// mailboxes this always pays the full latency + size/bandwidth from match
// time, the root cause of the linearly growing error of Figure 3.
func (tr *TaskRank) Recv(p *sim.Prog, src int) {
	p.Get(tr.world.box(src, tr.rank), 1)
	p.WaitReg(1)
}

// Irecv posts an asynchronous receive onto the pending FIFO.
func (tr *TaskRank) Irecv(p *sim.Prog, src int) {
	p.GetPending(tr.world.box(src, tr.rank))
}

// collective synchronizes all ranks, then charges everyone the monolithic
// duration d computed from the reference network figures.
func (tr *TaskRank) collective(p *sim.Prog, d float64) {
	p.Await(tr.world.barrier)
	if d > 0 {
		p.Sleep(d)
	}
}

// Barrier applies the monolithic model: log2(P) latency hops.
func (tr *TaskRank) Barrier(p *sim.Prog) {
	tr.collective(p, tr.world.log2ceil()*tr.world.cfg.RefLatency)
}

// Bcast charges log2(P) full hops.
func (tr *TaskRank) Bcast(p *sim.Prog, bytes float64, root int) {
	tr.collective(p, tr.world.log2ceil()*tr.world.perHop(bytes))
}

// Reduce charges log2(P) full hops.
func (tr *TaskRank) Reduce(p *sim.Prog, bytes float64, root int) {
	tr.collective(p, tr.world.log2ceil()*tr.world.perHop(bytes))
}

// AllReduce charges 2*log2(P) full hops (reduce then broadcast).
func (tr *TaskRank) AllReduce(p *sim.Prog, bytes float64) {
	tr.collective(p, 2*tr.world.log2ceil()*tr.world.perHop(bytes))
}

// AllToAll charges P-1 full hops.
func (tr *TaskRank) AllToAll(p *sim.Prog, bytes float64) {
	tr.collective(p, float64(tr.world.Size()-1)*tr.world.perHop(bytes))
}

// Gather charges P-1 full hops.
func (tr *TaskRank) Gather(p *sim.Prog, bytes float64, root int) {
	tr.collective(p, float64(tr.world.Size()-1)*tr.world.perHop(bytes))
}

// AllGather charges P-1 full hops.
func (tr *TaskRank) AllGather(p *sim.Prog, bytes float64) {
	tr.collective(p, float64(tr.world.Size()-1)*tr.world.perHop(bytes))
}

// AllToAllV charges one hop per peer at that peer's send volume.
func (tr *TaskRank) AllToAllV(p *sim.Prog, vols []float64) {
	tr.collective(p, tr.world.vectorHops(vols, tr.rank))
}

// AllGatherV charges one hop per remote block at that block's size.
func (tr *TaskRank) AllGatherV(p *sim.Prog, vols []float64) {
	tr.collective(p, tr.world.vectorHops(vols, tr.rank))
}
