package main

import (
	"fmt"
	"math"

	"pfpl"
)

// The benchmark's own error-bound checker. It evaluates the guarantee in
// double precision exactly as the pfpl package documentation states it,
// independently of pfpl.VerifyBound, so a defect shared by the codec and
// its own audit cannot hide:
//
//	ABS: |v - v'| <= Bound
//	REL: |v - v'| / |v| <= Bound, and v' has the sign of v
//	NOA: |v - v'| <= Bound * (max(data) - min(data))
//
// NaN must come back as NaN and ±Inf exactly.

func valueRange[F float32 | float64](data []F) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range data {
		v := float64(x)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// checkBound returns nil when every recon value honours the bound for its
// original, else an error naming the first violation.
func checkBound[F float32 | float64](orig, recon []F, mode pfpl.Mode, bound float64) error {
	if len(orig) != len(recon) {
		return fmt.Errorf("decoded %d values, want %d", len(recon), len(orig))
	}
	limit := bound
	if mode == pfpl.NOA {
		limit = bound * valueRange(orig)
	}
	for i := range orig {
		v, r := float64(orig[i]), float64(recon[i])
		if !valueOK(v, r, mode, bound, limit) {
			return fmt.Errorf("value %d: %v decoded as %v violates %v bound %g", i, v, r, mode, bound)
		}
	}
	return nil
}

func valueOK(v, r float64, mode pfpl.Mode, bound, limit float64) bool {
	switch {
	case math.IsNaN(v):
		return math.IsNaN(r)
	case math.IsInf(v, 0):
		return r == v
	}
	d := math.Abs(v - r)
	switch mode {
	case pfpl.ABS, pfpl.NOA:
		return d <= limit
	case pfpl.REL:
		if v == 0 {
			return r == 0
		}
		return d/math.Abs(v) <= bound && (r == 0 || (v < 0) == (r < 0))
	}
	return false
}
