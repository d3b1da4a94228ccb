package main

import (
	"math"
	"math/rand/v2"

	"repro/wht"
)

// signVector returns the ±1 image (-1)^f(i) of a random Boolean function
// f on n bits drawn from rng.  Its WHT is the function's Walsh spectrum:
// integers of magnitude at most 2^n, so every butterfly order computes
// it exactly in float64, and in float32 up to n = 24.
func signVector(rng *rand.Rand, n int) []float64 {
	x := make([]float64, 1<<uint(n))
	var bits uint64
	for i := range x {
		if i%64 == 0 {
			bits = rng.Uint64()
		}
		x[i] = float64(1 - 2*int(bits&1))
		bits >>= 1
	}
	return x
}

// textbookWHT is the radix-2 in-place WHT straight from the definition's
// butterfly recursion, in natural (Hadamard) order: the benchmark's own
// reference, independent of the engine's plans and kernels.
func textbookWHT[T wht.Float](x []T) {
	for h := 1; h < len(x); h <<= 1 {
		for i := 0; i < len(x); i += 2 * h {
			for j := i; j < i+h; j++ {
				a, b := x[j], x[j+h]
				x[j], x[j+h] = a+b, a-b
			}
		}
	}
}

func convert[T wht.Float](x []float64) []T {
	out := make([]T, len(x))
	for i, v := range x {
		out[i] = T(v)
	}
	return out
}

// signal is one seeded input with its reference spectrum.
type signal[T wht.Float] struct {
	n    int
	x, X []T
}

func newSignal[T wht.Float](rng *rand.Rand, n int) signal[T] {
	x := signVector(rng, n)
	X := convert[T](x)
	textbookWHT(X)
	return signal[T]{n: n, x: convert[T](x), X: X}
}

// matchesAfter reports whether got is exactly what k in-place transforms
// of the signal's input produce.  The WHT squares to 2^n times the
// identity, so that is 2^(n(k-1)/2)·X for odd k and 2^(nk/2)·x for even
// k: a power-of-two scaling, exact until the exponent overflows (k <= 8
// stays far from it in float32 at n = 22).
func (s signal[T]) matchesAfter(got []T, k int) bool {
	base, p := s.x, k/2
	if k%2 == 1 {
		base, p = s.X, (k-1)/2
	}
	if len(got) != len(base) {
		return false
	}
	scale := T(math.Ldexp(1, p*s.n))
	for i, v := range got {
		if v != base[i]*scale {
			return false
		}
	}
	return true
}

// sampler is a workload's seeded generator for everything but inputs.
// pick chooses the seeded quarter of calls that get verified besides the
// first and the last, which the workloads always verify.
type sampler struct{ *rand.Rand }

func (s sampler) pick() bool { return s.IntN(4) == 0 }
