package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// Differential tests for the chunk quantizers: QuantizeChunk32/64 and
// DequantizeChunk32/64 must produce exactly the words and values of the
// per-value EncodeValue/DecodeValue loop, for every mode and bound, at every
// chunk length and lane alignment, and on adversarial values.

var chunkEpsilons = []float64{1e-7, 1e-4, 1e-2, 0.5, 10}

// chunkParams returns the parameter sets the differential tests sweep for
// eps: ABS, NOA (against a fixed range), REL, and the lossless Raw form.
func chunkParams(t testing.TB, eps float64, prec64 bool) map[string]Params {
	t.Helper()
	out := map[string]Params{}
	for name, c := range map[string]struct {
		mode Mode
		rng  float64
	}{"ABS": {ABS, 0}, "NOA": {NOA, 3.7}, "REL": {REL, 0}, "Raw": {NOA, 0}} {
		p, err := NewParams(c.mode, eps, c.rng, prec64)
		if err != nil {
			t.Fatalf("%s eps=%g: %v", name, eps, err)
		}
		out[name] = p
	}
	return out
}

// halfBins32 returns values on and one ulp either side of the half-bin
// boundaries of p, where rounding to a bin is most fragile.
func halfBins32(p *Params) []float32 {
	var out []float32
	for _, k := range []float64{0, 1, 2, 7, 100, 12345, f32RelBin - 1} {
		for _, sign := range []float64{1, -1} {
			var x float64
			if p.Mode == REL {
				x = sign * math.Exp2((k+0.5)*p.logBin)
			} else {
				x = sign * (k + 0.5) * p.twoEps
			}
			v := float32(x)
			out = append(out, v, math.Nextafter32(v, float32(math.Inf(1))), math.Nextafter32(v, float32(math.Inf(-1))))
		}
	}
	return out
}

func halfBins64(p *Params) []float64 {
	var out []float64
	for _, k := range []float64{0, 1, 2, 7, 100, 12345, 1 << 40} {
		for _, sign := range []float64{1, -1} {
			var x float64
			if p.Mode == REL {
				x = sign * math.Exp2((k+0.5)*p.logBin)
			} else {
				x = sign * (k + 0.5) * p.twoEps
			}
			out = append(out, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
		}
	}
	return out
}

// adversarial32 holds the special classes each lane of a four-value group
// must pass through unchanged: signed zeros, NaN payloads of both signs,
// infinities, denormals, extremes, and the smallest normal.
var adversarial32 = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7FC00000, 0xFFC00000, 0x7F800001, 0xFF800001, 0x7FBFFFFF, 0xFFFFFFFF, // NaNs
	0x7F800000, 0xFF800000, // ±Inf
	0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF, 0x00400000, // denormals
	0x7F7FFFFF, 0xFF7FFFFF, // ±MaxFloat32
	0x00800000, 0x80800000, // ±smallest normal
	0x3F800000, 0xBF800000, 0x3F800001, 0x4B000000, 0xCB7FFFFF, // ±1, 2^23 neighbours
}

var adversarial64 = []uint64{
	0x0000000000000000, 0x8000000000000000,
	0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF0000000000001, 0x7FF7FFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF,
	0x7FF0000000000000, 0xFFF0000000000000,
	0x0000000000000001, 0x8000000000000001, 0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF, 0x0008000000000000,
	0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
	0x0010000000000000, 0x8010000000000000,
	0x3FF0000000000000, 0xBFF0000000000000, 0x3FF0000000000001, 0x4330000000000000, 0xC33FFFFFFFFFFFFF,
}

// corpus32 interleaves the adversarial values with runs of ordinary ones,
// so both the four-lane groups and the fallback see every class, then pads
// with a smooth field and random values to a full chunk.
func corpus32(p *Params) []float32 {
	rng := rand.New(rand.NewSource(5))
	var out []float32
	for i, b := range adversarial32 {
		out = append(out, math.Float32frombits(b))
		for j := 0; j < i%5; j++ {
			out = append(out, float32(1+rng.Float64())*float32(math.Pow(2, float64(rng.Intn(40)-20))))
		}
	}
	out = append(out, halfBins32(p)...)
	for i := 0; len(out) < ChunkWords32; i++ {
		if i%7 == 0 {
			out = append(out, randFloat32(rng))
			continue
		}
		out = append(out, float32(math.Exp(3*math.Sin(float64(i)*0.01))-1.5))
	}
	return out[:ChunkWords32]
}

func corpus64(p *Params) []float64 {
	rng := rand.New(rand.NewSource(6))
	var out []float64
	for i, b := range adversarial64 {
		out = append(out, math.Float64frombits(b))
		for j := 0; j < i%5; j++ {
			out = append(out, (1+rng.Float64())*math.Pow(2, float64(rng.Intn(200)-100)))
		}
	}
	out = append(out, halfBins64(p)...)
	for i := 0; len(out) < ChunkWords64; i++ {
		if i%7 == 0 {
			out = append(out, randFloat64(rng))
			continue
		}
		out = append(out, math.Exp(3*math.Sin(float64(i)*0.01))-1.5)
	}
	return out[:ChunkWords64]
}

// chunkWindows yields the slices a differential test checks: every window
// of 1..9 values starting at each of the first 64 offsets (so every
// special value lands in every lane), and the whole chunk.
func chunkWindows(n int, f func(lo, hi int)) {
	for size := 1; size <= 9; size++ {
		for lo := 0; lo < 64 && lo+size <= n; lo++ {
			f(lo, lo+size)
		}
	}
	f(0, n)
}

// diffQuantize32 compares the chunk quantizers with the per-value loop on
// src, encoding and then decoding the encoder's words and extra.
func diffQuantize32(t testing.TB, name string, p *Params, src []float32, extra []uint32) {
	t.Helper()
	got := make([]uint32, len(src))
	QuantizeChunk32(p, src, got)
	for i, v := range src {
		if want := p.EncodeValue32(v); got[i] != want {
			t.Fatalf("%s: QuantizeChunk32[%d] of %d (%#08x) = %#08x, want %#08x",
				name, i, len(src), f32bits(v), got[i], want)
		}
	}
	for _, words := range [][]uint32{got, extra} {
		dst := make([]float32, len(words))
		DequantizeChunk32(p, words, dst)
		for i, w := range words {
			if want := p.DecodeValue32(w); f32bits(dst[i]) != f32bits(want) {
				t.Fatalf("%s: DequantizeChunk32[%d] of %d (%#08x) = %#08x, want %#08x",
					name, i, len(words), w, f32bits(dst[i]), f32bits(want))
			}
		}
	}
}

func diffQuantize64(t testing.TB, name string, p *Params, src []float64, extra []uint64) {
	t.Helper()
	got := make([]uint64, len(src))
	QuantizeChunk64(p, src, got)
	for i, v := range src {
		if want := p.EncodeValue64(v); got[i] != want {
			t.Fatalf("%s: QuantizeChunk64[%d] of %d (%#016x) = %#016x, want %#016x",
				name, i, len(src), f64bits(v), got[i], want)
		}
	}
	for _, words := range [][]uint64{got, extra} {
		dst := make([]float64, len(words))
		DequantizeChunk64(p, words, dst)
		for i, w := range words {
			if want := p.DecodeValue64(w); f64bits(dst[i]) != f64bits(want) {
				t.Fatalf("%s: DequantizeChunk64[%d] of %d (%#016x) = %#016x, want %#016x",
					name, i, len(words), w, f64bits(dst[i]), f64bits(want))
			}
		}
	}
}

// relWords32 are words a decoder may meet: every reserved REL payload,
// bins near both range limits, and arbitrary bit patterns.
func relWords32(rng *rand.Rand, n int) []uint32 {
	out := []uint32{
		(f32RelXor | f32PosZero) ^ f32RelXor, (f32RelXor | f32NegZero) ^ f32RelXor,
		(f32RelXor | f32RelBase) ^ f32RelXor, (f32RelXor | f32MantMask) ^ f32RelXor, 0,
	}
	for len(out) < n {
		out = append(out, rng.Uint32()>>uint(rng.Intn(32)))
	}
	return out
}

func relWords64(rng *rand.Rand, n int) []uint64 {
	out := []uint64{
		(f64RelXor | f64PosZero) ^ f64RelXor, (f64RelXor | f64NegZero) ^ f64RelXor,
		(f64RelXor | f64RelBase) ^ f64RelXor, (f64RelXor | f64MantMask) ^ f64RelXor, 0,
	}
	for len(out) < n {
		out = append(out, rng.Uint64()>>uint(rng.Intn(64)))
	}
	return out
}

func TestDifferentialQuantizeChunk32(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	extra := relWords32(rng, 4096)
	for _, eps := range chunkEpsilons {
		for mode, p := range chunkParams(t, eps, false) {
			src := corpus32(&p)
			chunkWindows(len(src), func(lo, hi int) {
				diffQuantize32(t, mode, &p, src[lo:hi], extra[lo:hi])
			})
		}
	}
}

func TestDifferentialQuantizeChunk64(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	extra := relWords64(rng, 2048)
	for _, eps := range chunkEpsilons {
		for mode, p := range chunkParams(t, eps, true) {
			src := corpus64(&p)
			chunkWindows(len(src), func(lo, hi int) {
				diffQuantize64(t, mode, &p, src[lo:hi], extra[lo:hi])
			})
		}
	}
}

// fuzzParams maps the fuzzer's mode byte and bound onto a valid Params,
// or reports false when the bound is unusable for that mode.
func fuzzParams(mode uint8, eps float64, prec64 bool) (Params, bool) {
	m := Mode(mode % 3)
	p, err := NewParams(m, eps, 3.7, prec64)
	return p, err == nil
}

// fuzzSeeds adds the adversarial corpus, packed little-endian, with every
// mode and differential bound.
func fuzzSeeds(f *testing.F, data []byte) {
	for _, eps := range chunkEpsilons {
		for mode := uint8(0); mode < 3; mode++ {
			f.Add(data, mode, eps)
		}
	}
}

func FuzzQuantizeChunk32(f *testing.F) {
	data := make([]byte, 4*len(adversarial32))
	for i, b := range adversarial32 {
		binary.LittleEndian.PutUint32(data[4*i:], b)
	}
	fuzzSeeds(f, data)
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, eps float64) {
		p, ok := fuzzParams(mode, eps, false)
		if !ok {
			return
		}
		n := min(len(data)/4, ChunkWords32)
		src := make([]float32, n)
		words := make([]uint32, n)
		for i := range src {
			words[i] = binary.LittleEndian.Uint32(data[4*i:])
			src[i] = f32frombits(words[i])
		}
		diffQuantize32(t, p.Mode.String(), &p, src, words)
	})
}

func FuzzQuantizeChunk64(f *testing.F) {
	data := make([]byte, 8*len(adversarial64))
	for i, b := range adversarial64 {
		binary.LittleEndian.PutUint64(data[8*i:], b)
	}
	fuzzSeeds(f, data)
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, eps float64) {
		p, ok := fuzzParams(mode, eps, true)
		if !ok {
			return
		}
		n := min(len(data)/8, ChunkWords64)
		src := make([]float64, n)
		words := make([]uint64, n)
		for i := range src {
			words[i] = binary.LittleEndian.Uint64(data[8*i:])
			src[i] = f64frombits(words[i])
		}
		diffQuantize64(t, p.Mode.String(), &p, src, words)
	})
}

// TestQuantizeChunkZeroAllocs guards the chunk quantizers, four-lane REL
// included, against heap allocation in every mode.
func TestQuantizeChunkZeroAllocs(t *testing.T) {
	for mode, p := range chunkParams(t, 1e-3, false) {
		src := corpus32(&p)
		words := make([]uint32, len(src))
		if a := testing.AllocsPerRun(20, func() {
			QuantizeChunk32(&p, src, words)
			DequantizeChunk32(&p, words, src)
		}); a != 0 {
			t.Errorf("%s f32: %v allocs per chunk", mode, a)
		}
	}
	for mode, p := range chunkParams(t, 1e-3, true) {
		src := corpus64(&p)
		words := make([]uint64, len(src))
		if a := testing.AllocsPerRun(20, func() {
			QuantizeChunk64(&p, src, words)
			DequantizeChunk64(&p, words, src)
		}); a != 0 {
			t.Errorf("%s f64: %v allocs per chunk", mode, a)
		}
	}
}
