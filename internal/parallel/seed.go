package parallel

// Deterministic per-task randomness. Experiments that inject randomness
// (sensor noise, fault timing) must not share one sequential PRNG stream
// across tasks: under a worker pool the interleaving — and therefore every
// task's draws — would depend on scheduling. Instead each task derives its
// own stream from (base seed, task index) with SplitMix64, so any execution
// order produces identical draws.

// splitmix64 is the SplitMix64 mixing function (Steele, Lea & Flood 2014):
// a bijective avalanche mix whose outputs pass BigCrush. It is the standard
// way to spawn independent seeds from sequential indices.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TaskSeed derives a stable, well-mixed seed for task index from a base
// seed. Nearby indices yield statistically independent seeds.
func TaskSeed(base uint64, index int) uint64 {
	return splitmix64(base ^ splitmix64(uint64(index)+0x632be59bd9b4e019))
}

// Uniform maps (seed, draw index) to a uniform float64 in [0, 1) without
// any stream state: draw k of a task is the same value no matter how many
// other tasks ran, or in what order. Use consecutive k for consecutive
// draws.
func Uniform(seed, k uint64) float64 {
	return float64(splitmix64(seed^splitmix64(k))>>11) / (1 << 53)
}

// Stream is a stateless draw stream: a derived seed plus a draw counter.
// Draw k is Uniform(seed, k), so a stream replays identically under any
// scheduling. The fault injectors give each fault class its own stream,
// salted so that enabling one class never shifts another's sequence.
type Stream struct {
	seed uint64
	k    uint64
}

// NewStream returns the stream seeded by TaskSeed(base^salt, 0).
func NewStream(base, salt uint64) Stream {
	return Stream{seed: TaskSeed(base^salt, 0)}
}

// Next consumes one uniform draw in [0,1).
func (s *Stream) Next() float64 {
	u := Uniform(s.seed, s.k)
	s.k++
	return u
}

// Pick maps (seed, draw index) to a uniform choice in [0, n) with the same
// stateless guarantee as Uniform: draw k depends only on (seed, k, n),
// never on other draws or execution order. n must be positive.
func Pick(seed, k uint64, n int) int {
	if n <= 0 {
		panic("parallel: Pick needs a positive choice count")
	}
	i := int(Uniform(seed, k) * float64(n))
	if i >= n { // guard the (unreachable in practice) rounding edge
		i = n - 1
	}
	return i
}
