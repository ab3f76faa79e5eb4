package core

// Chunk-level quantizers. EncodeChunk32/64 and DecodeChunk32/64 quantize a
// whole chunk at once so the mode switch runs once per chunk instead of
// once per value. REL, whose cost is the portable Log2/Exp2 chains, runs in
// groups of four finite nonzero values with the four chains interleaved
// (encodeRel32x4 and friends); groups holding a special value and the last
// len%4 values take the per-value path. Every value sees exactly the
// operation sequence of EncodeValue32/64, so the words are identical.
//
// The reference kernel set (PFPL_REF_KERNELS / SetFastKernels) and the
// SkipVerify and UseLibm ablations keep the per-value loop.

// perValue reports whether the chunk quantizers must take the per-value
// EncodeValue/DecodeValue path.
func (p *Params) perValue() bool {
	return !fastKernels.Load() || p.SkipVerify || p.UseLibm
}

// QuantizeChunk32 writes EncodeValue32(src[i]) to dst[i] for every i.
//
//pfpl:hotpath
func QuantizeChunk32(p *Params, src []float32, dst []uint32) {
	dst = dst[:len(src)]
	switch {
	case p.perValue():
		for i, v := range src {
			dst[i] = p.EncodeValue32(v)
		}
	case p.Raw:
		for i, v := range src {
			dst[i] = f32bits(v)
		}
	case p.Mode == REL:
		i := 0
		for ; i+4 <= len(src); i += 4 {
			v := (*[4]float32)(src[i : i+4])
			if relQuantizable32(f32bits(v[0])) && relQuantizable32(f32bits(v[1])) &&
				relQuantizable32(f32bits(v[2])) && relQuantizable32(f32bits(v[3])) {
				p.encodeRel32x4(v, (*[4]uint32)(dst[i:i+4]))
				continue
			}
			for j := i; j < i+4; j++ {
				dst[j] = p.encodeRel32(src[j])
			}
		}
		for ; i < len(src); i++ {
			dst[i] = p.encodeRel32(src[i])
		}
	default:
		for i, v := range src {
			dst[i] = p.encodeAbs32(v)
		}
	}
}

// DequantizeChunk32 writes DecodeValue32(src[i]) to dst[i] for every i.
//
//pfpl:hotpath
func DequantizeChunk32(p *Params, src []uint32, dst []float32) {
	dst = dst[:len(src)]
	switch {
	case p.perValue():
		for i, w := range src {
			dst[i] = p.DecodeValue32(w)
		}
	case p.Raw:
		for i, w := range src {
			dst[i] = f32frombits(w)
		}
	case p.Mode == REL:
		i := 0
		for ; i+4 <= len(src); i += 4 {
			w := (*[4]uint32)(src[i : i+4])
			_, _, ok0 := relBinOf32(w[0])
			_, _, ok1 := relBinOf32(w[1])
			_, _, ok2 := relBinOf32(w[2])
			_, _, ok3 := relBinOf32(w[3])
			if ok0 && ok1 && ok2 && ok3 {
				p.decodeRel32x4(w, (*[4]float32)(dst[i:i+4]))
				continue
			}
			for j := i; j < i+4; j++ {
				dst[j] = p.decodeRel32(src[j])
			}
		}
		for ; i < len(src); i++ {
			dst[i] = p.decodeRel32(src[i])
		}
	default:
		for i, w := range src {
			dst[i] = p.decodeAbs32(w)
		}
	}
}

// QuantizeChunk64 writes EncodeValue64(src[i]) to dst[i] for every i.
//
//pfpl:hotpath
func QuantizeChunk64(p *Params, src []float64, dst []uint64) {
	dst = dst[:len(src)]
	switch {
	case p.perValue():
		for i, v := range src {
			dst[i] = p.EncodeValue64(v)
		}
	case p.Raw:
		for i, v := range src {
			dst[i] = f64bits(v)
		}
	case p.Mode == REL:
		i := 0
		for ; i+4 <= len(src); i += 4 {
			v := (*[4]float64)(src[i : i+4])
			if relQuantizable64(f64bits(v[0])) && relQuantizable64(f64bits(v[1])) &&
				relQuantizable64(f64bits(v[2])) && relQuantizable64(f64bits(v[3])) {
				p.encodeRel64x4(v, (*[4]uint64)(dst[i:i+4]))
				continue
			}
			for j := i; j < i+4; j++ {
				dst[j] = p.encodeRel64(src[j])
			}
		}
		for ; i < len(src); i++ {
			dst[i] = p.encodeRel64(src[i])
		}
	default:
		for i, v := range src {
			dst[i] = p.encodeAbs64(v)
		}
	}
}

// DequantizeChunk64 writes DecodeValue64(src[i]) to dst[i] for every i.
//
//pfpl:hotpath
func DequantizeChunk64(p *Params, src []uint64, dst []float64) {
	dst = dst[:len(src)]
	switch {
	case p.perValue():
		for i, w := range src {
			dst[i] = p.DecodeValue64(w)
		}
	case p.Raw:
		for i, w := range src {
			dst[i] = f64frombits(w)
		}
	case p.Mode == REL:
		i := 0
		for ; i+4 <= len(src); i += 4 {
			w := (*[4]uint64)(src[i : i+4])
			_, _, ok0 := relBinOf64(w[0])
			_, _, ok1 := relBinOf64(w[1])
			_, _, ok2 := relBinOf64(w[2])
			_, _, ok3 := relBinOf64(w[3])
			if ok0 && ok1 && ok2 && ok3 {
				p.decodeRel64x4(w, (*[4]float64)(dst[i:i+4]))
				continue
			}
			for j := i; j < i+4; j++ {
				dst[j] = p.decodeRel64(src[j])
			}
		}
		for ; i < len(src); i++ {
			dst[i] = p.decodeRel64(src[i])
		}
	default:
		for i, w := range src {
			dst[i] = p.decodeAbs64(w)
		}
	}
}
