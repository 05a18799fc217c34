package sim

import (
	"fmt"
	"testing"
)

// BenchmarkContextSwitch measures the scheduler handoff — one process
// resumed through a long run of short sleeps: a direct function call into
// the process's machine per resume.
func BenchmarkContextSwitch(b *testing.B) {
	b.Run("continuation", func(b *testing.B) {
		e := NewEngine(pairRouter{&Link{Bandwidth: 1e9, Latency: 0}})
		h := &Host{Name: "h", Speed: 1e9}
		n := b.N
		i := 0
		e.SpawnProg("p", h, func(p *Prog) (bool, error) {
			if i++; i > n {
				return false, nil
			}
			p.Sleep(1e-9)
			return true, nil
		})
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkPingPong measures matched send/recv pairs between two hosts.
func BenchmarkPingPong(b *testing.B) {
	link := &Link{Name: "l", Bandwidth: 1e9, Latency: 1e-6}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(2, 1e9)
	space := e.NewPairSpace("t", nil)
	ab, ba := space.Box(0, 1), space.Box(1, 0)
	n := b.N
	i, j := 0, 0
	e.SpawnProg("a", hs[0], func(p *Prog) (bool, error) {
		if i++; i > n {
			return false, nil
		}
		put(p, ab, 1024)
		get(p, ba)
		return true, nil
	})
	e.SpawnProg("b", hs[1], func(p *Prog) (bool, error) {
		if j++; j > n {
			return false, nil
		}
		get(p, ab)
		put(p, ba, 1024)
		return true, nil
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMaxMinSharing measures the bandwidth-sharing solver with many
// concurrent flows over a shared backbone.
func BenchmarkMaxMinSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		link := &Link{Name: "bb", Bandwidth: 1e10, Latency: 1e-6}
		e := NewEngine(pairRouter{link})
		hs := newTestHosts(64, 1e9)
		mb := boxes(e, 32)
		for j := 0; j < 32; j++ {
			mb := mb[j]
			e.SpawnProg("s", hs[j], script(func(p *Prog) {
				for k := 0; k < 8; k++ {
					put(p, mb, 1e6)
				}
			}))
			e.SpawnProg("r", hs[32+j], script(func(p *Prog) {
				for k := 0; k < 8; k++ {
					get(p, mb)
				}
			}))
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetachedSends measures eager-style fire-and-forget traffic.
func BenchmarkDetachedSends(b *testing.B) {
	link := &Link{Name: "l", Bandwidth: 1e9, Latency: 1e-6}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(2, 1e9)
	mb := e.NewPairSpace("t", hs).Box(0, 1) // pinned to hs[1]
	n := b.N
	i, j := 0, 0
	e.SpawnProg("s", hs[0], func(p *Prog) (bool, error) {
		if i++; i > n {
			return false, nil
		}
		p.PutDetached(mb, 1024)
		p.Sleep(1e-6)
		return true, nil
	})
	e.SpawnProg("r", hs[1], func(p *Prog) (bool, error) {
		if j++; j > n {
			return false, nil
		}
		get(p, mb)
		return true, nil
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFanIn pins the match queues' worst case: every sender posts one
// detached send to rank 0, which then receives them in reverse rank order,
// so each receive walks past every send still queued toward rank 0 — O(k)
// per post for k unmatched comms at one destination.
func BenchmarkFanIn(b *testing.B) {
	for _, senders := range []int{64, 1024} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := NewEngine(pairRouter{&Link{Name: "l", Bandwidth: 1e9, Latency: 1e-6}})
				hs := newTestHosts(senders+1, 1e9)
				space := e.NewPairSpace("t", hs)
				for r := 1; r <= senders; r++ {
					mb := space.Box(r, 0)
					e.SpawnProg("s", hs[r], script(func(p *Prog) { p.PutDetached(mb, 1024) }))
				}
				e.SpawnProg("r", hs[0], script(func(p *Prog) {
					for r := senders; r >= 1; r-- {
						p.GetPending(space.Box(r, 0))
					}
					p.WaitAllPending()
				}))
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
