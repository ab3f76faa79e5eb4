// Package portmath implements the portable transcendental approximations
// that PFPL's REL quantizer relies on (paper §III.C).
//
// Library log()/pow() implementations often differ between compilers and
// devices, which would break PFPL's bit-for-bit CPU/GPU compatibility. The
// functions here therefore use only IEEE 754 addition, subtraction,
// multiplication, and division plus integer bit manipulation. Identical
// inputs therefore yield identical outputs on every conforming platform.
//
// Fused multiply-add would break that: it skips the rounding of the
// product, and the Go specification lets the compiler fuse x*y + z even
// across statements and through intermediate variables (arm64, ppc64le,
// riscv64 and s390x do). Only an explicit conversion forces the rounding,
// so every product that feeds an addition or subtraction, here and in the
// quantizers that call this package, is written float64(x*y). CI fails if
// the compiled code of this package or of internal/core contains a fused
// multiply-add instruction on any of those targets.
//
// Log2x4 and Exp2x4 evaluate four independent arguments with their
// polynomial chains interleaved, so a core overlaps four dependent
// multiply-add latencies instead of waiting on one. Each lane performs
// exactly the operation sequence of the scalar function, with the same
// coefficient list and the same reduction helpers, so the results are
// bit-identical to four scalar calls.
//
// The approximations carry small errors relative to a correctly rounded
// libm. PFPL tolerates this: the quantizer immediately verifies every
// reconstructed value against the error bound and stores the original bits
// losslessly when the approximation strays (paper §III.B).
package portmath

import "math"

const (
	ln2     = 0.6931471805599453 // rounded ln(2)
	invLn2  = 1.4426950408889634 // rounded 1/ln(2)
	sqrt2   = 1.4142135623730951 // rounded sqrt(2)
	pow511  = 0x1p511            // 2^511, for range reduction in scalb
	pow512m = 0x1p-511           // 2^-511
)

// log2Poly holds the coefficients of 1 + z/3 + z^2/5 + ... + z^10/21, the
// series of atanh(s)/s in z = s^2, highest degree first for Horner.
var log2Poly = [...]float64{
	1.0 / 21.0, 1.0 / 19.0, 1.0 / 17.0, 1.0 / 15.0, 1.0 / 13.0, 1.0 / 11.0,
	1.0 / 9.0, 1.0 / 7.0, 1.0 / 5.0, 1.0 / 3.0, 1.0,
}

// exp2Poly holds the Taylor coefficients of exp(t) through t^13/13!,
// highest degree first; they keep the truncation error below 1e-16
// relative on the reduced range |t| <= 0.347.
var exp2Poly = [...]float64{
	1.0 / 6227020800.0, 1.0 / 479001600.0, 1.0 / 39916800.0, 1.0 / 3628800.0,
	1.0 / 362880.0, 1.0 / 40320.0, 1.0 / 5040.0, 1.0 / 720.0, 1.0 / 120.0,
	1.0 / 24.0, 1.0 / 6.0, 0.5, 1.0, 1.0,
}

// log2Reduce splits finite x > 0 into 2^e * m with m in (sqrt2/2, sqrt2]
// and returns e and s = (m-1)/(m+1), |s| <= 0.1716, so that
// ln(m) = 2*atanh(s).
func log2Reduce(x float64) (e int, s float64) {
	bits := math.Float64bits(x)
	if bits&0x7FF0000000000000 == 0 {
		// Denormal: scale into the normal range first.
		x *= 0x1p54
		e = -54
		bits = math.Float64bits(x)
	}
	e += int(bits>>52&0x7FF) - 1023
	// Replace the exponent to obtain the mantissa m in [1, 2).
	m := math.Float64frombits(bits&0x000FFFFFFFFFFFFF | 0x3FF0000000000000)
	if m > sqrt2 {
		m = m * 0.5
		e++
	}
	return e, (m - 1) / (m + 1)
}

// log2Finish combines the exponent with ln(m) = 2*s*p, p the series value.
func log2Finish(e int, s, p float64) float64 {
	lnm := 2 * s * p
	return float64(e) + float64(lnm*invLn2)
}

// Log2 returns an approximation of the base-2 logarithm of x for finite
// x > 0. The result is within a few ULPs of the correctly rounded value.
// Behaviour for x <= 0, NaN, or +Inf is the caller's responsibility; the
// PFPL quantizer filters those values before calling.
func Log2(x float64) float64 {
	e, s := log2Reduce(x)
	z := s * s
	p := log2Poly[0]
	for _, c := range log2Poly[1:] {
		p = float64(p*z) + c
	}
	return log2Finish(e, s, p)
}

// Log2x4 returns Log2 of four values, bit-identical to four Log2 calls.
//
//pfpl:hotpath
func Log2x4(x0, x1, x2, x3 float64) (y0, y1, y2, y3 float64) {
	e0, s0 := log2Reduce(x0)
	e1, s1 := log2Reduce(x1)
	e2, s2 := log2Reduce(x2)
	e3, s3 := log2Reduce(x3)
	z0, z1, z2, z3 := s0*s0, s1*s1, s2*s2, s3*s3
	p0, p1, p2, p3 := log2Poly[0], log2Poly[0], log2Poly[0], log2Poly[0]
	for _, c := range log2Poly[1:] {
		p0 = float64(p0*z0) + c
		p1 = float64(p1*z1) + c
		p2 = float64(p2*z2) + c
		p3 = float64(p3*z3) + c
	}
	return log2Finish(e0, s0, p0), log2Finish(e1, s1, p1),
		log2Finish(e2, s2, p2), log2Finish(e3, s3, p3)
}

// exp2Normal reports whether Exp2 evaluates x through its polynomial: x is
// not NaN and 2^x neither saturates to +Inf nor rounds to 0.
func exp2Normal(x float64) bool {
	return x < 1025 && x > -1076
}

// exp2Reduce splits x into n + f with n = round(x), |f| <= 0.5, and
// returns t = f*ln2, |t| <= 0.347.
func exp2Reduce(x float64) (t float64, n int64) {
	n = RoundToInt(x)
	f := x - float64(n)
	return f * ln2, n
}

// Exp2 returns an approximation of 2**x for finite x, saturating to +Inf
// above the representable range and to 0 below it.
func Exp2(x float64) float64 {
	if !exp2Normal(x) {
		switch {
		case x != x: // NaN guard; quantizer never passes NaN but stay total
			return x
		case x >= 1025:
			return math.Inf(1)
		}
		return 0
	}
	t, n := exp2Reduce(x)
	p := exp2Poly[0]
	for _, c := range exp2Poly[1:] {
		p = float64(p*t) + c
	}
	return Scalb(p, n)
}

// Exp2x4 returns Exp2 of four values, bit-identical to four Exp2 calls.
//
//pfpl:hotpath
func Exp2x4(x0, x1, x2, x3 float64) (y0, y1, y2, y3 float64) {
	if !(exp2Normal(x0) && exp2Normal(x1) && exp2Normal(x2) && exp2Normal(x3)) {
		return Exp2(x0), Exp2(x1), Exp2(x2), Exp2(x3)
	}
	t0, n0 := exp2Reduce(x0)
	t1, n1 := exp2Reduce(x1)
	t2, n2 := exp2Reduce(x2)
	t3, n3 := exp2Reduce(x3)
	p0, p1, p2, p3 := exp2Poly[0], exp2Poly[0], exp2Poly[0], exp2Poly[0]
	for _, c := range exp2Poly[1:] {
		p0 = float64(p0*t0) + c
		p1 = float64(p1*t1) + c
		p2 = float64(p2*t2) + c
		p3 = float64(p3*t3) + c
	}
	return Scalb(p0, n0), Scalb(p1, n1), Scalb(p2, n2), Scalb(p3, n3)
}

// Scalb returns y * 2**n computed with exact power-of-two multiplications,
// a portable replacement for math.Ldexp. Overflow saturates to ±Inf and
// underflow rounds through the denormal range to ±0 per IEEE semantics of
// the constituent multiplications.
func Scalb(y float64, n int64) float64 {
	for n > 511 {
		y *= pow511
		n -= 511
	}
	for n < -511 {
		y *= pow512m
		n += 511
	}
	// The conversion keeps a caller's y*2^n - z from fusing.
	return float64(y * math.Float64frombits(uint64(n+1023)<<52))
}

// RoundToInt rounds x to the nearest integer, halves away from zero, using
// only comparisons, additions, and an integer conversion. The caller must
// ensure |x| < 2^62; the PFPL quantizers bound the magnitude before calling.
func RoundToInt(x float64) int64 {
	if x >= 0 {
		return int64(x + 0.5)
	}
	return int64(x - 0.5)
}
