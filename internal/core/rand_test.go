package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestNewRandStream pins NewRand to math/rand's stream draw for draw,
// across seeds math/rand reduces specially (0, negatives, multiples of
// its LCG modulus, extremes) and MixSeed outputs, and across the draw
// where randSource builds its register.
func TestNewRandStream(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, lcgMod, -lcgMod, 2 * lcgMod, -3 * lcgMod, lcgMod - 1, lcgMod + 1,
		89482311, 1 << 62, -1 << 62, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for i := int64(0); len(seeds) < 2100; i++ {
		seeds = append(seeds, MixSeed(7, i), i-500, i*lcgMod)
	}
	for _, seed := range seeds {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		perm := []int{0, 1, 2, 3, 4, 5, 6}
		permWant := append([]int(nil), perm...)
		for d := 0; d < 1500; d++ {
			var g, w any
			switch d % 5 {
			case 0:
				g, w = got.Int63(), want.Int63()
			case 1:
				n := d%97 + 1
				g, w = got.Intn(n), want.Intn(n)
			case 2:
				g, w = got.Uint64(), want.Uint64()
			case 3:
				g, w = got.Float64(), want.Float64()
			case 4:
				got.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
				want.Shuffle(len(permWant), func(i, j int) { permWant[i], permWant[j] = permWant[j], permWant[i] })
				if !slices.Equal(perm, permWant) {
					t.Fatalf("seed %d draw %d: shuffled %v, want %v", seed, d, perm, permWant)
				}
			}
			if g != w {
				t.Fatalf("seed %d draw %d: got %v, want %v", seed, d, g, w)
			}
		}
	}
}

// TestNewRandReseed pins Rand.Seed on a NewRand generator, before and
// after its register is built, to a fresh stream.
func TestNewRandReseed(t *testing.T) {
	r := NewRand(3)
	for _, draws := range []int{0, 10, 273, 274, 2000} {
		for i := 0; i < draws; i++ {
			r.Int63()
		}
		seed := int64(draws) * 31
		r.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for d := 0; d < 1000; d++ {
			if g, w := r.Int63(), want.Int63(); g != w {
				t.Fatalf("reseed after %d draws, draw %d: got %d, want %d", draws, d, g, w)
			}
		}
	}
}

func TestNewRandAllocs(t *testing.T) {
	n := testing.AllocsPerRun(100, func() {
		r := NewRand(42)
		for i := 0; i < 5; i++ {
			r.Intn(3)
		}
	})
	if n > 1 {
		t.Fatalf("NewRand plus 5 draws allocates %.1f objects, want 1", n)
	}
}

func BenchmarkNewRand(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRand(int64(i))
		for j := 0; j < 5; j++ {
			r.Intn(3)
		}
	}
}

func BenchmarkStockRand(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		for j := 0; j < 5; j++ {
			r.Intn(3)
		}
	}
}
