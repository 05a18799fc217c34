package stats

// RNG is a small deterministic pseudo-random generator (SplitMix64) used to
// model per-process jitter in the ground-truth cluster emulation. We do not
// use math/rand so that streams are stable across Go releases and cheap to
// fork per process: reproducibility of the "real" cluster runs is what makes
// the accuracy experiments meaningful.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent stream for the given process index. Streams
// forked from the same parent with different ids never collide in practice
// (golden-ratio increments land in distinct orbits).
func (r *RNG) Fork(id uint64) *RNG {
	return &RNG{state: r.state ^ (id+1)*0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
