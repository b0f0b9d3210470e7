package tensor

// Micro-benchmarks for the matmul kernels at HARP-representative shapes:
// tall-skinny activation×weight products (thousands of token rows, embed
// widths of a few dozen), a larger square case where cache blocking and
// the parallel path matter, and the exact products one Abilene request
// issues under DefaultConfig (2,774 tokens, 528 tunnels, r = 12).

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchDense(rng *rand.Rand, rows, cols int) *Dense {
	d := New(rows, cols)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

func benchShapes() [][3]int {
	return [][3]int{
		{2048, 12, 12},  // token activations × projection (SETTRANS)
		{2048, 24, 48},  // RAU hidden layer
		{256, 256, 256}, // large square: blocked/parallel territory
		{2774, 12, 12},  // Abilene Q/K/V and attention out-projection
		{2774, 12, 24},  // Abilene SETTRANS feed-forward, up
		{2774, 24, 12},  // Abilene SETTRANS feed-forward, down
		{528, 17, 24},   // Abilene RAU first layer, per-iteration tail columns
		{528, 24, 2},    // Abilene RAU output layer
		{5, 6, 5},       // one head's attention product over a 5-token tunnel
	}
}

func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range benchShapes() {
		a := benchDense(rng, s[0], s[1])
		bb := benchDense(rng, s[1], s[2])
		dst := New(s[0], s[2])
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMul(dst, a, bb)
			}
		})
	}
}

func BenchmarkMatMulATBAcc(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range benchShapes() {
		a := benchDense(rng, s[0], s[1])
		bb := benchDense(rng, s[0], s[2])
		dst := New(s[1], s[2])
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulATBAcc(dst, a, bb)
			}
		})
	}
}

func BenchmarkMatMulABTAcc(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range benchShapes() {
		a := benchDense(rng, s[0], s[1])
		bb := benchDense(rng, s[2], s[1])
		dst := New(s[0], s[2])
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulABTAcc(dst, a, bb)
			}
		})
	}
}
