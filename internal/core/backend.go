package core

// This file is the backend abstraction: both replay implementations (the
// accurate SMPI-style backend and the legacy MSG prototype) compile trace
// actions into sim micro-ops through the TaskOps interface, driven by the
// one shared lowering (driver.go), and are selected by name.

import (
	"fmt"

	"tireplay/internal/sim"
)

// TaskOps is the per-rank operation set a replay backend provides: the MPI
// subset the time-independent trace format records. Each method lowers one
// trace action into sim micro-ops appended to the given program. Wait and
// its variants are absent on purpose — Lower emits Prog.WaitPending and its
// siblings itself, because the pending-request FIFO (and the
// no-outstanding-request trace check) is driver state, not backend state.
type TaskOps interface {
	Compute(p *sim.Prog, instr float64)

	// Point-to-point operations. Isend/Irecv push onto the program's pending
	// FIFO.
	Send(p *sim.Prog, dst int, bytes float64)
	Isend(p *sim.Prog, dst int, bytes float64)
	Recv(p *sim.Prog, src int)
	Irecv(p *sim.Prog, src int)

	// Collective operations. The vector collectives take one volume per rank
	// (already validated against the communicator size by the trace
	// stream). The vector is read-only and valid only during the call: it
	// is the stream's, which reuses it for its next action.
	Barrier(p *sim.Prog)
	Bcast(p *sim.Prog, bytes float64, root int)
	Reduce(p *sim.Prog, bytes float64, root int)
	AllReduce(p *sim.Prog, bytes float64)
	AllToAll(p *sim.Prog, bytes float64)
	Gather(p *sim.Prog, bytes float64, root int)
	AllGather(p *sim.Prog, bytes float64)
	AllToAllV(p *sim.Prog, vols []float64)
	AllGatherV(p *sim.Prog, vols []float64)
}

// Backends returns the sorted names of the replay backends.
func Backends() []string { return []string{MSG, SMPI} }

// Lookup resolves a backend name; the empty string selects SMPI, the
// paper's accurate default.
func Lookup(name string) (BackendKind, error) {
	switch name {
	case "":
		return SMPI, nil
	case SMPI, MSG:
		return name, nil
	}
	return "", fmt.Errorf("core: unknown backend %q (registered: %v)", name, Backends())
}
