// Package splitmix implements the SplitMix64 generator the repository
// uses everywhere randomness is drawn: wrapped as a math/rand source by
// the Monte Carlo engine (internal/mc) for the scalar samplers, and held
// concretely by the bit-parallel batch sampler (internal/stabsim) so the
// per-draw Float64 inlines into the sampling hot loop instead of costing
// two interface dispatches per noise op.
//
// Two properties make it the right shard RNG:
//
//   - Seeding is a single word store. math/rand's default source runs a
//     607-element lagged-Fibonacci warm-up on every Seed, which at one
//     fresh RNG per 256-shot shard was both the dominant allocation
//     (~4.9KB per shard) and a measurable slice of CPU. Here a worker
//     keeps one generator for its lifetime and re-points it at each
//     shard's stream with Seed(shard.Seed) at zero cost.
//   - Streams stay decorrelated under the engine's seeding discipline:
//     shard seeds are already splitmix64 outputs (mc.StreamSeed), so the
//     per-shard state starts at a well-mixed point and every output is
//     passed through the full SplitMix64 finalizer.
package splitmix

// RNG is a SplitMix64 generator. It implements rand.Source64, so it can
// back a *rand.Rand, and exposes Float64 directly for hot loops. The zero
// value is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed int64) *RNG {
	return &RNG{state: uint64(seed)}
}

// Seed resets the stream. Unlike the default math/rand source this is
// O(1), which is what makes one-RNG-per-worker, reseed-per-shard free.
func (s *RNG) Seed(seed int64) { s.state = uint64(seed) }

// Mix returns the SplitMix64 output of state x: the golden-gamma
// increment followed by the finalizer, so Mix(uint64(s)) ==
// New(s).Uint64(). Callers use it as a stateless stream splitter (Steele,
// Lea, Flood: "Fast splittable pseudorandom number generators").
// Uint64 keeps its own copy so the sampling hot loop's inlining does not
// depend on this function's.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint64 advances the state by the golden-gamma increment and returns the
// SplitMix64 mix of the new state.
func (s *RNG) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 satisfies rand.Source.
func (s *RNG) Int63() int64 { return int64(s.Uint64() >> 1) }

// Float64 returns a uniform draw in [0, 1) from the top 53 bits of the
// next output word.
func (s *RNG) Float64() float64 {
	return float64(s.Uint64()>>11) * 0x1p-53
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0. Drawn by
// the samplers only on actual error events, so the modulo (with rejection
// of the biased tail, hit ~never for small n) is off the hot path.
func (s *RNG) Intn(n int) int {
	if n <= 0 {
		panic("splitmix: Intn with n <= 0")
	}
	limit := ^uint64(0) - ^uint64(0)%uint64(n)
	for {
		if v := s.Uint64(); v < limit {
			return int(v % uint64(n))
		}
	}
}
