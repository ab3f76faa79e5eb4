package main

import (
	"math"

	"pfpl"
)

// rng is splitmix64: tiny, seedable and identical on every platform, so a
// seed names the same inputs everywhere.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// norm returns a standard normal value (Box–Muller, one of the pair).
func (r *rng) norm() float64 {
	u := r.float()
	if u < 1e-300 {
		u = 1e-300
	}
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*r.float())
}

// jitter returns 1 ± up to 5%: a seed moves field parameters a little but
// never changes a field's character, so ratio and speed stay comparable
// across seeds.
func (r *rng) jitter() float64 { return 0.95 + 0.1*r.float() }

// shape is one of the internal/sdrbench field families.
type shape int

const (
	smooth    shape = iota // climate-like: smooth multi-scale waves, small noise
	lognormal              // cosmology-like: high dynamic range, correlated
	particles              // particle-like: noisy, weakly correlated
	sensor                 // DAQ sensor noise: incompressible at the bound
)

func (s shape) String() string {
	return [...]string{"smooth", "lognormal", "particles", "sensor"}[s]
}

// genField fills a field of n values of the given shape, viewed as rows of
// width w (so "smooth" has structure along both axes, like a 2-D slice).
func genField(sh shape, n int, r *rng) []float64 {
	out := make([]float64, n)
	w := 1024
	switch sh {
	case smooth:
		a, b, c := 0.013*r.jitter(), 0.021*r.jitter(), 0.0007*r.jitter()
		ph := 6.28 * r.float()
		for i := range out {
			x, y := float64(i%w), float64(i/w)
			out[i] = 280 + 12*math.Sin(a*x+ph) + 7*math.Cos(b*y) + 3*math.Sin(c*float64(i)) + 0.02*r.norm()
		}
	case lognormal:
		a, b := 0.009*r.jitter(), 0.017*r.jitter()
		for i := range out {
			x, y := float64(i%w), float64(i/w)
			g := 1.5*math.Sin(a*x)*math.Cos(b*y) + 0.35*r.norm()
			out[i] = math.Exp(2 + 2.5*g)
		}
	case particles:
		step := 0.01 * r.jitter()
		for i := range out {
			out[i] = float64(i%w)*step + 0.3*r.norm()
		}
	case sensor:
		// Random mantissas over a wide exponent range: many values cannot
		// be quantized within the bound and the rest are uncorrelated, so
		// chunks fall back to raw storage.
		for i := range out {
			out[i] = math.Ldexp(r.float()-0.5, int(r.next()%48))
		}
	}
	return out
}

func to32(v []float64) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = float32(x)
	}
	return out
}

// spec describes one generated field and the bound it is compressed with.
type spec struct {
	shape shape
	n     int // values
	mode  pfpl.Mode
	bound float64
	f64   bool
}

func (s spec) rawBytes() int {
	if s.f64 {
		return s.n * 8
	}
	return s.n * 4
}
