package core

import (
	"math"

	"pfpl/internal/portmath"
)

// EncodeValue64 is the double-precision counterpart of EncodeValue32. The
// denormal and NaN ranges are much wider (2^52 values), allowing a wider
// range of bin numbers (paper §III.B).
func (p *Params) EncodeValue64(v float64) uint64 {
	if p.Raw {
		return math.Float64bits(v)
	}
	if p.Mode == REL {
		return p.encodeRel64(v)
	}
	return p.encodeAbs64(v)
}

// DecodeValue64 inverts EncodeValue64.
func (p *Params) DecodeValue64(w uint64) float64 {
	if p.Raw {
		return math.Float64frombits(w)
	}
	if p.Mode == REL {
		return p.decodeRel64(w)
	}
	return p.decodeAbs64(w)
}

func (p *Params) encodeAbs64(v float64) uint64 {
	bits := math.Float64bits(v)
	if bits&f64ExpMask == f64ExpMask {
		return bits
	}
	b := float64(v * p.scale)
	if !(b < f64MaxBin+0.5 && b > -(f64MaxBin+0.5)) {
		return bits
	}
	bin := portmath.RoundToInt(b)
	if !p.SkipVerify {
		r := float64(float64(bin) * p.twoEps)
		diff := v - r
		if !(diff <= p.absBound && diff >= -p.absBound) {
			return bits
		}
	}
	if bin < 0 {
		return f64SignBit | uint64(-bin)
	}
	return uint64(bin)
}

func (p *Params) decodeAbs64(w uint64) float64 {
	if w&f64ExpMask != 0 {
		return math.Float64frombits(w)
	}
	bin := int64(w & f64MantMask)
	if w&f64SignBit != 0 {
		bin = -bin
	}
	return float64(bin) * p.twoEps
}

// encodeRel64 is the double-precision REL quantizer; see encodeRel32.
func (p *Params) encodeRel64(v float64) uint64 {
	bits := math.Float64bits(v)
	if !relQuantizable64(bits) {
		return relSpecial64(bits)
	}
	mag := relMag64(v)
	bin, ok := relBin(float64(p.log2(mag)*p.invLogBin), f64RelBin)
	if !ok {
		return bits ^ f64RelXor
	}
	if p.SkipVerify {
		return relWord64(bin, bits)
	}
	return p.relVerify64(bits, mag, bin, p.exp2(float64(float64(bin)*p.logBin)))
}

// encodeRel64x4 is encodeRel64 for four quantizable values; see
// encodeRel32x4.
//
//pfpl:hotpath
func (p *Params) encodeRel64x4(v *[4]float64, w *[4]uint64) {
	m0, m1, m2, m3 := relMag64(v[0]), relMag64(v[1]), relMag64(v[2]), relMag64(v[3])
	l0, l1, l2, l3 := portmath.Log2x4(m0, m1, m2, m3)
	bin0, ok0 := relBin(float64(l0*p.invLogBin), f64RelBin)
	bin1, ok1 := relBin(float64(l1*p.invLogBin), f64RelBin)
	bin2, ok2 := relBin(float64(l2*p.invLogBin), f64RelBin)
	bin3, ok3 := relBin(float64(l3*p.invLogBin), f64RelBin)
	e0, e1, e2, e3 := portmath.Exp2x4(float64(float64(bin0)*p.logBin), float64(float64(bin1)*p.logBin),
		float64(float64(bin2)*p.logBin), float64(float64(bin3)*p.logBin))
	w[0] = p.relLane64(v[0], m0, bin0, ok0, e0)
	w[1] = p.relLane64(v[1], m1, bin1, ok1, e1)
	w[2] = p.relLane64(v[2], m2, bin2, ok2, e2)
	w[3] = p.relLane64(v[3], m3, bin3, ok3, e3)
}

// relQuantizable64 reports whether bits is finite and nonzero.
func relQuantizable64(bits uint64) bool {
	return bits&f64ExpMask != f64ExpMask && bits&^f64SignBit != 0
}

// relSpecial64 encodes NaN, ±Inf and ±0; see relSpecial32.
func relSpecial64(bits uint64) uint64 {
	switch {
	case bits == 0:
		return (f64RelXor | f64PosZero) ^ f64RelXor
	case bits == f64SignBit:
		return (f64RelXor | f64NegZero) ^ f64RelXor
	case bits&f64MantMask != 0:
		bits &^= f64SignBit // negative NaN -> positive NaN
	}
	return bits ^ f64RelXor
}

// relMag64 returns |v|.
func relMag64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// relLane64 finishes one lane of encodeRel64x4; see relLane32.
func (p *Params) relLane64(v, mag float64, bin int64, ok bool, e float64) uint64 {
	bits := math.Float64bits(v)
	if !ok {
		return bits ^ f64RelXor
	}
	return p.relVerify64(bits, mag, bin, e)
}

// relVerify64 keeps the bin only if the reconstruction e honors the bound
// (see relVerify32 for the rationale).
func (p *Params) relVerify64(bits uint64, mag float64, bin int64, e float64) uint64 {
	diff := mag - e
	if diff < 0 {
		diff = -diff
	}
	if !(diff/mag <= p.Bound) || e == 0 || !isFinite64(e) {
		return bits ^ f64RelXor
	}
	return relWord64(bin, bits)
}

// relWord64 packs bin and the sign of bits into an emitted word.
func relWord64(bin int64, bits uint64) uint64 {
	return (f64RelXor | relPayload(bin, bits&f64SignBit != 0)) ^ f64RelXor
}

func (p *Params) decodeRel64(w uint64) float64 {
	if bin, neg, ok := relBinOf64(w); ok {
		return relValue64(p.exp2(float64(float64(bin)*p.logBin)), neg)
	}
	return relLossless64(w)
}

// decodeRel64x4 is decodeRel64 for four words that all hold bins.
//
//pfpl:hotpath
func (p *Params) decodeRel64x4(w *[4]uint64, dst *[4]float64) {
	bin0, neg0, _ := relBinOf64(w[0])
	bin1, neg1, _ := relBinOf64(w[1])
	bin2, neg2, _ := relBinOf64(w[2])
	bin3, neg3, _ := relBinOf64(w[3])
	e0, e1, e2, e3 := portmath.Exp2x4(float64(float64(bin0)*p.logBin), float64(float64(bin1)*p.logBin),
		float64(float64(bin2)*p.logBin), float64(float64(bin3)*p.logBin))
	dst[0] = relValue64(e0, neg0)
	dst[1] = relValue64(e1, neg1)
	dst[2] = relValue64(e2, neg2)
	dst[3] = relValue64(e3, neg3)
}

// relBinOf64 reports whether w holds a quantized bin and, if so, returns it
// with the sign of the value.
func relBinOf64(w uint64) (bin int64, neg, ok bool) {
	raw := w ^ f64RelXor
	if raw&f64ExpMask == f64ExpMask && raw&f64SignBit != 0 && raw&f64MantMask >= f64RelBase {
		bin, neg = relUnpayload(raw & f64MantMask)
		return bin, neg, true
	}
	return 0, false, false
}

// relValue64 applies the sign to the reconstructed magnitude.
func relValue64(e float64, neg bool) float64 {
	if neg {
		return -e
	}
	return e
}

// relLossless64 decodes a word that holds no bin: a reserved ±0 payload or
// a value stored losslessly.
func relLossless64(w uint64) float64 {
	raw := w ^ f64RelXor
	if raw&f64ExpMask == f64ExpMask && raw&f64SignBit != 0 {
		switch raw & f64MantMask {
		case f64PosZero:
			return 0
		case f64NegZero:
			return math.Float64frombits(f64SignBit)
		}
	}
	return math.Float64frombits(raw)
}
