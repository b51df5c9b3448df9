package main

// rng is the benchmark's own PRNG (splitmix64). Inputs must be
// byte-identical across commits, so nothing here depends on math/rand's
// generator or on any engine package.
type rng struct{ s uint64 }

// structSeed fixes the *shape* of every generated input (graph topology,
// program templates, injected redundancy). The --seed argument only
// permutes labels, variable names and operation order over that shape, so
// runs with different seeds do the same amount of work and their metrics
// are comparable.
const structSeed = 0x5361676976383761 // "Sagiv87a"

// newRNG derives an independent stream from a seed and a stream name.
func newRNG(seed uint64, stream string) *rng {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	r := &rng{s: seed*0x9E3779B97F4A7C15 ^ h}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is irrelevant at the
// sizes used here (n ≪ 2^32).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a random permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// shuffle is Fisher–Yates over an index-swap callback.
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}
