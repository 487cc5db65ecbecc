package core

import "math/rand"

// math/rand's default source is an additive lagged Fibonacci generator
// over a 607-word register: draw k adds the words at feed = 334-k and
// tap = 607-k (mod 607) and stores the sum back at feed. Seeding fills
// the register from the Lehmer LCG x -> 48271·x mod (2^31-1), started
// at the reduced seed and stepped 20 times before use: word i packs
// the LCG's values 21+3i, 22+3i and 23+3i (shifted by 40, 20 and 0
// bits) and XORs in a fixed "cooked" constant. rand.NewSource pays for
// all 1,841 LCG steps up front.
//
// randSource produces the same stream but computes word i on demand
// from a table of the multiplier's powers, three multiplications per
// word. The first rngTap draws read only words no earlier draw has
// written (feed 333..61 and tap 606..334), so they need nothing else;
// draw rngTap+1 is the first to read a written word, and it builds the
// whole register once.
const (
	rngLen   = 607
	rngTap   = 273
	rngFeed  = rngLen - rngTap
	rngMask  = 1<<63 - 1
	lcgMod   = 1<<31 - 1
	lcgMul   = 48271
	lcgSkip  = 20
	lcgSteps = lcgSkip + 3*rngLen // LCG steps a full seeding takes
)

var (
	// lcgPow[n] is lcgMul^n mod lcgMod: the LCG value n steps after x
	// is lcgPow[n]·x mod lcgMod.
	lcgPow [lcgSteps + 1]uint64
	// rngCooked is math/rand's cooked constant table, recovered at init
	// from a stock source's output (see solveCooked).
	rngCooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for n := range lcgPow {
		lcgPow[n] = p
		p = p * lcgMul % lcgMod
	}
	solveCooked()
}

// solveCooked recovers the cooked constants from the first rngLen
// outputs of rand.NewSource(1). Every word is read as a feed exactly
// once in those draws, so each is a difference of known values: for
// draws k > rngTap the tap word already holds output k-rngTap, and for
// k <= rngTap it is an original word solved by a later draw. XORing
// out seed 1's LCG part leaves the constant.
func solveCooked() {
	ref := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]uint64 // out[k] is draw k's output
	for k := 1; k <= rngLen; k++ {
		out[k] = ref.Uint64()
	}
	var word [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		word[(rngFeed-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		word[rngFeed-k] = out[k] - word[rngLen-k]
	}
	x0 := lcgSeed(1)
	for i := range word {
		rngCooked[i] = word[i] ^ lcgWord(x0, i)
	}
}

// lcgSeed reduces a seed the way rand.NewSource does.
func lcgSeed(seed int64) uint64 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// lcgWord is register word i before the cooked constant is XORed in.
func lcgWord(x0 uint64, i int) uint64 {
	n := lcgSkip + 1 + 3*i
	return lcgPow[n]*x0%lcgMod<<40 ^ lcgPow[n+1]*x0%lcgMod<<20 ^ lcgPow[n+2]*x0%lcgMod
}

// randSource is a rand.Source64 whose stream equals
// rand.NewSource(seed)'s draw for draw, but whose Seed is O(1). The
// register is built only if more than rngTap values are drawn, and a
// reseeded source reuses it.
type randSource struct {
	x0        uint64
	n         int // draws so far, counted up to rngTap+1
	tap, feed int
	vec       *[rngLen]uint64
}

// Seed implements rand.Source.
func (s *randSource) Seed(seed int64) {
	s.x0 = lcgSeed(seed)
	s.n = 0
}

// word computes original register word i.
func (s *randSource) word(i int) uint64 { return lcgWord(s.x0, i) ^ rngCooked[i] }

// Uint64 implements rand.Source64.
func (s *randSource) Uint64() uint64 {
	if s.n < rngTap {
		s.n++
		return s.word(rngFeed-s.n) + s.word(rngLen-s.n)
	}
	if s.n == rngTap {
		s.build()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// build materializes the register as it stands after rngTap draws.
func (s *randSource) build() {
	if s.vec == nil {
		s.vec = new([rngLen]uint64)
	}
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	for k := 1; k <= rngTap; k++ {
		s.vec[rngFeed-k] += s.vec[rngLen-k]
	}
	s.tap, s.feed = rngLen-rngTap, rngFeed-rngTap
	s.n++
}

// Int63 implements rand.Source.
func (s *randSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// seededRand co-allocates a rand.Rand with its source.
type seededRand struct {
	rand.Rand
	src randSource
}

// NewRand returns a generator whose every draw equals
// rand.New(rand.NewSource(seed))'s, in one small allocation and O(1)
// time instead of 607 words and 1,841 LCG steps. Rand.Seed on the
// result reseeds it to the same stream a fresh NewRand would give.
// Per-run strategies and runtimes use it for all seeded randomness.
func NewRand(seed int64) *rand.Rand {
	r := &seededRand{}
	r.src.Seed(seed)
	r.Rand = *rand.New(&r.src)
	return &r.Rand
}
