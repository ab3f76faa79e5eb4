package core

import (
	"math"

	"pfpl/internal/portmath"
)

// EncodeValue32 quantizes one float32 into a 32-bit word that is either a
// bin number or, when quantization cannot honor the error bound, the
// unmodified (REL: sign-normalized, prefix-inverted) IEEE bit pattern. The
// word stream is self-describing: DecodeValue32 distinguishes bins from
// lossless values by their position in the floating-point encoding space
// (paper §III.B).
func (p *Params) EncodeValue32(v float32) uint32 {
	if p.Raw {
		return math.Float32bits(v)
	}
	if p.Mode == REL {
		return p.encodeRel32(v)
	}
	return p.encodeAbs32(v)
}

// DecodeValue32 inverts EncodeValue32. The exact sequence of floating-point
// operations matches the verification step of the encoder, which is what
// makes the error-bound guarantee airtight.
func (p *Params) DecodeValue32(w uint32) float32 {
	if p.Raw {
		return math.Float32frombits(w)
	}
	if p.Mode == REL {
		return p.decodeRel32(w)
	}
	return p.decodeAbs32(w)
}

// encodeAbs32 implements the ABS/NOA quantizer for single precision. Bins
// are stored in the denormal range (exponent bits zero) in magnitude-sign
// format; the error bound is at least the smallest normal, so denormal
// inputs always quantize to bin 0 and every losslessly stored value has a
// nonzero exponent field, keeping the two cases disjoint.
func (p *Params) encodeAbs32(v float32) uint32 {
	bits := math.Float32bits(v)
	if bits&f32ExpMask == f32ExpMask {
		// Infinity or NaN: store losslessly (paper §III.B).
		return bits
	}
	v64 := float64(v)
	b := float64(v64 * p.scale)
	if !(b < f32MaxBin+0.5 && b > -(f32MaxBin+0.5)) {
		// Bin number too large for the denormal range (or b overflowed).
		return bits
	}
	bin := portmath.RoundToInt(b)
	if !p.SkipVerify {
		r := float32(float64(bin) * p.twoEps)
		diff := v64 - float64(r)
		if !(diff <= p.absBound && diff >= -p.absBound) {
			// Finite-precision rounding pushed the reconstruction out of
			// bounds: guarantee the bound by storing the original bits.
			return bits
		}
	}
	if bin < 0 {
		return f32SignBit | uint32(-bin)
	}
	return uint32(bin)
}

func (p *Params) decodeAbs32(w uint32) float32 {
	if w&f32ExpMask != 0 {
		return math.Float32frombits(w)
	}
	bin := int64(w & f32MantMask)
	if w&f32SignBit != 0 {
		bin = -bin
	}
	return float32(float64(bin) * p.twoEps)
}

// encodeRel32 implements the REL quantizer: bins are computed in log2 space
// with the portable approximations and stored in the negative-NaN range.
// Every emitted word is XORed with the negative-NaN prefix so that bin
// numbers lead with zero bits (paper §III.B). encodeRel32x4 runs the same
// steps on four values at once; the helpers below are shared by both.
func (p *Params) encodeRel32(v float32) uint32 {
	bits := math.Float32bits(v)
	if !relQuantizable32(bits) {
		return relSpecial32(bits)
	}
	mag := relMag32(v)
	bin, ok := relBin(float64(p.log2(mag)*p.invLogBin), f32RelBin)
	if !ok {
		return bits ^ f32RelXor
	}
	if p.SkipVerify {
		return relWord32(bin, bits)
	}
	return p.relVerify32(bits, mag, bin, p.exp2(float64(float64(bin)*p.logBin)))
}

// encodeRel32x4 is encodeRel32 for four quantizable values (finite and
// nonzero), with the Log2 and Exp2 chains of the four lanes interleaved.
// Each lane performs exactly encodeRel32's operation sequence, so the words
// are identical; the caller routes SkipVerify and UseLibm elsewhere.
//
//pfpl:hotpath
func (p *Params) encodeRel32x4(v *[4]float32, w *[4]uint32) {
	m0, m1, m2, m3 := relMag32(v[0]), relMag32(v[1]), relMag32(v[2]), relMag32(v[3])
	l0, l1, l2, l3 := portmath.Log2x4(m0, m1, m2, m3)
	bin0, ok0 := relBin(float64(l0*p.invLogBin), f32RelBin)
	bin1, ok1 := relBin(float64(l1*p.invLogBin), f32RelBin)
	bin2, ok2 := relBin(float64(l2*p.invLogBin), f32RelBin)
	bin3, ok3 := relBin(float64(l3*p.invLogBin), f32RelBin)
	e0, e1, e2, e3 := portmath.Exp2x4(float64(float64(bin0)*p.logBin), float64(float64(bin1)*p.logBin),
		float64(float64(bin2)*p.logBin), float64(float64(bin3)*p.logBin))
	w[0] = p.relLane32(v[0], m0, bin0, ok0, e0)
	w[1] = p.relLane32(v[1], m1, bin1, ok1, e1)
	w[2] = p.relLane32(v[2], m2, bin2, ok2, e2)
	w[3] = p.relLane32(v[3], m3, bin3, ok3, e3)
}

// relQuantizable32 reports whether bits is finite and nonzero, the values
// the log-space quantizer handles; the rest go through relSpecial32.
func relQuantizable32(bits uint32) bool {
	return bits&f32ExpMask != f32ExpMask && bits&^f32SignBit != 0
}

// relSpecial32 encodes the values log space cannot take: NaN and ±Inf are
// stored losslessly (negative NaNs made positive to free their encoding
// space for bin numbers), ±0 get reserved payloads.
func relSpecial32(bits uint32) uint32 {
	switch {
	case bits == 0:
		return (f32RelXor | f32PosZero) ^ f32RelXor
	case bits == f32SignBit:
		return (f32RelXor | f32NegZero) ^ f32RelXor
	case bits&f32MantMask != 0:
		bits &^= f32SignBit
	}
	return bits ^ f32RelXor
}

// relMag32 returns |v| in double precision.
func relMag32(v float32) float64 {
	mag := float64(v)
	if mag < 0 {
		mag = -mag
	}
	return mag
}

// relLane32 finishes one lane of encodeRel32x4: out-of-range bins store the
// value losslessly, the rest are verified against e = Exp2(bin*logBin).
func (p *Params) relLane32(v float32, mag float64, bin int64, ok bool, e float64) uint32 {
	bits := math.Float32bits(v)
	if !ok {
		return bits ^ f32RelXor
	}
	return p.relVerify32(bits, mag, bin, e)
}

// relVerify32 rounds the reconstruction e to single precision and keeps the
// bin only if it honors the bound; otherwise the original bits are stored.
func (p *Params) relVerify32(bits uint32, mag float64, bin int64, e float64) uint32 {
	r64 := float64(float32(e))
	// Verify with the exact arithmetic any auditor would use: the relative
	// error |v-r|/|v| must not exceed eps, and r must keep the sign of v
	// (r == 0 is rejected to preserve the sign requirement).
	diff := mag - r64
	if diff < 0 {
		diff = -diff
	}
	if !(diff/mag <= p.Bound) || r64 == 0 || !isFinite64(r64) {
		return bits ^ f32RelXor
	}
	return relWord32(bin, bits)
}

// relWord32 packs bin and the sign of bits into an emitted word.
func relWord32(bin int64, bits uint32) uint32 {
	//pfpl:ignore intwidth payload is 2+2*|bin| with |bin| <= f32RelBin, far below 2^23
	return (f32RelXor | uint32(relPayload(bin, bits&f32SignBit != 0))) ^ f32RelXor
}

func (p *Params) decodeRel32(w uint32) float32 {
	if bin, neg, ok := relBinOf32(w); ok {
		return relValue32(p.exp2(float64(float64(bin)*p.logBin)), neg)
	}
	return relLossless32(w)
}

// decodeRel32x4 is decodeRel32 for four words that all hold bins.
//
//pfpl:hotpath
func (p *Params) decodeRel32x4(w *[4]uint32, dst *[4]float32) {
	bin0, neg0, _ := relBinOf32(w[0])
	bin1, neg1, _ := relBinOf32(w[1])
	bin2, neg2, _ := relBinOf32(w[2])
	bin3, neg3, _ := relBinOf32(w[3])
	e0, e1, e2, e3 := portmath.Exp2x4(float64(float64(bin0)*p.logBin), float64(float64(bin1)*p.logBin),
		float64(float64(bin2)*p.logBin), float64(float64(bin3)*p.logBin))
	dst[0] = relValue32(e0, neg0)
	dst[1] = relValue32(e1, neg1)
	dst[2] = relValue32(e2, neg2)
	dst[3] = relValue32(e3, neg3)
}

// relBinOf32 reports whether w holds a quantized bin and, if so, returns it
// with the sign of the value.
func relBinOf32(w uint32) (bin int64, neg, ok bool) {
	raw := w ^ f32RelXor
	if raw&f32ExpMask == f32ExpMask && raw&f32SignBit != 0 && raw&f32MantMask >= f32RelBase {
		bin, neg = relUnpayload(uint64(raw & f32MantMask))
		return bin, neg, true
	}
	return 0, false, false
}

// relValue32 rounds the reconstructed magnitude and applies the sign.
func relValue32(e float64, neg bool) float32 {
	rmag := float32(e)
	if neg {
		return -rmag
	}
	return rmag
}

// relLossless32 decodes a word that holds no bin: a reserved ±0 payload or
// a value stored losslessly.
func relLossless32(w uint32) float32 {
	raw := w ^ f32RelXor
	if raw&f32ExpMask == f32ExpMask && raw&f32SignBit != 0 {
		switch raw & f32MantMask {
		case f32PosZero:
			return 0
		case f32NegZero:
			return math.Float32frombits(f32SignBit)
		}
	}
	return math.Float32frombits(raw)
}
