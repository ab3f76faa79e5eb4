package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"pfpl"
	"pfpl/internal/core"
)

// The per-layer probes of the traced run. Each times calls into one
// layer's public functions on the workload's own data; see README.md for
// which end-to-end metric each row should move.

const probePasses = 7 // repetitions per probe; the median is reported

// stageTimes accumulates per-stage nanoseconds over a sample of chunks.
type stageTimes map[string]float64

// chunkSample returns up to per evenly spaced whole chunks of vals.
func chunkSample[F float32 | float64](vals []F, words, per int) [][]F {
	n := len(vals) / words
	if n == 0 {
		return [][]F{vals}
	}
	step := max(1, n/per)
	var out [][]F
	for c := 0; c < n && len(out) < per; c += step {
		out = append(out, vals[c*words:(c+1)*words])
	}
	return out
}

func since(t *time.Time) float64 {
	now := time.Now()
	d := float64(now.Sub(*t))
	*t = now
	return d
}

// coreStages32 times every stage of the chunk pipeline, and the fused
// EncodeChunk32/DecodeChunk32 around them, over one pass of chunks.
func coreStages32(p *core.Params, chunks [][]float32, st stageTimes) {
	var s, ds core.Scratch32
	var zs core.ZeroElimScratch
	var q, w [core.ChunkWords32]uint32
	var b [core.ChunkBytes]byte
	out := make([]byte, 0, core.MaxChunkPayload)
	dst := make([]float32, core.ChunkWords32)
	for _, src := range chunks {
		n := len(src)
		padded := core.PaddedWords32(n)
		t := time.Now()
		for i, v := range src {
			q[i] = p.EncodeValue32(v)
		}
		st["quantize"] += since(&t)
		copy(w[:], q[:n])
		clear(w[n:padded])
		t = time.Now()
		core.DeltaNegaForward32(w[:n])
		st["delta"] += since(&t)
		core.BitShuffle32(w[:padded])
		st["shuffle"] += since(&t)
		for i := 0; i < padded; i++ {
			binary.LittleEndian.PutUint32(b[i*4:], w[i])
		}
		t = time.Now()
		core.ZeroElimEncodeScratch(b[:padded*4], out[:0], &zs)
		st["zero_elim"] += since(&t)
		payload, raw := core.EncodeChunk32(p, src, &s)
		st["chunk_encode"] += since(&t)
		if err := core.DecodeChunk32(p, payload, raw, dst[:n], &ds); err != nil {
			panic(err) // the stream was just produced by EncodeChunk32
		}
		st["chunk_decode"] += since(&t)
		if raw {
			continue // DecodeChunk32 runs no stage for a raw chunk
		}
		if _, err := core.ZeroElimDecodeScratch(payload, b[:padded*4], &zs); err != nil {
			panic(err)
		}
		st["zero_elim_decode"] += since(&t)
		for i := 0; i < padded; i++ {
			w[i] = binary.LittleEndian.Uint32(b[i*4:])
		}
		t = time.Now()
		core.BitShuffle32(w[:padded])
		st["unshuffle"] += since(&t)
		core.DeltaNegaInverse32(w[:n])
		st["undelta"] += since(&t)
		for i := range dst[:n] {
			dst[i] = p.DecodeValue32(w[i])
		}
		st["dequantize"] += since(&t)
	}
}

// coreStages64 is the double-precision counterpart of coreStages32.
func coreStages64(p *core.Params, chunks [][]float64, st stageTimes) {
	var s, ds core.Scratch64
	var zs core.ZeroElimScratch
	var q, w [core.ChunkWords64]uint64
	var b [core.ChunkBytes]byte
	out := make([]byte, 0, core.MaxChunkPayload)
	dst := make([]float64, core.ChunkWords64)
	for _, src := range chunks {
		n := len(src)
		padded := core.PaddedWords64(n)
		t := time.Now()
		for i, v := range src {
			q[i] = p.EncodeValue64(v)
		}
		st["quantize"] += since(&t)
		copy(w[:], q[:n])
		clear(w[n:padded])
		t = time.Now()
		core.DeltaNegaForward64(w[:n])
		st["delta"] += since(&t)
		core.BitShuffle64(w[:padded])
		st["shuffle"] += since(&t)
		for i := 0; i < padded; i++ {
			binary.LittleEndian.PutUint64(b[i*8:], w[i])
		}
		t = time.Now()
		core.ZeroElimEncodeScratch(b[:padded*8], out[:0], &zs)
		st["zero_elim"] += since(&t)
		payload, raw := core.EncodeChunk64(p, src, &s)
		st["chunk_encode"] += since(&t)
		if err := core.DecodeChunk64(p, payload, raw, dst[:n], &ds); err != nil {
			panic(err)
		}
		st["chunk_decode"] += since(&t)
		if raw {
			continue
		}
		if _, err := core.ZeroElimDecodeScratch(payload, b[:padded*8], &zs); err != nil {
			panic(err)
		}
		st["zero_elim_decode"] += since(&t)
		for i := 0; i < padded; i++ {
			w[i] = binary.LittleEndian.Uint64(b[i*8:])
		}
		t = time.Now()
		core.BitShuffle64(w[:padded])
		st["unshuffle"] += since(&t)
		core.DeltaNegaInverse64(w[:n])
		st["undelta"] += since(&t)
		for i := range dst[:n] {
			dst[i] = p.DecodeValue64(w[i])
		}
		st["dequantize"] += since(&t)
	}
}

// probeCore reports the core.* stage rows for one precision: per pass the
// ns per KiB of raw input, median over passes. pack and unpack are the
// fused chunk time minus its measured stages: the word<->byte loops and the
// raw-fallback copy that have no kernel of their own.
func probeCore(rep *report, fields []*field, f64 bool) error {
	type job struct {
		p      core.Params
		c32    [][]float32
		c64    [][]float64
		rawKiB float64
	}
	var sel []*field
	for _, f := range fields {
		if f.f64 == f64 {
			sel = append(sel, f)
		}
	}
	// At most 64 fields, evenly spaced, keep a pass short on many-field
	// workloads.
	step := max(1, len(sel)/64)
	var jobs []job
	for k := 0; k < len(sel); k += step {
		f := sel[k]
		var j job
		var rng float64
		if f64 {
			rng = core.Range64(f.v64)
			j.c64 = chunkSample(f.v64, core.ChunkWords64, 16)
			for _, c := range j.c64 {
				j.rawKiB += float64(len(c)) * 8 / 1024
			}
		} else {
			rng = core.Range32(f.v32)
			j.c32 = chunkSample(f.v32, core.ChunkWords32, 16)
			for _, c := range j.c32 {
				j.rawKiB += float64(len(c)) * 4 / 1024
			}
		}
		p, err := core.NewParams(f.mode, f.bound, rng, f64)
		if err != nil {
			return fmt.Errorf("core params for %v: %w", f, err)
		}
		j.p = p
		jobs = append(jobs, j)
	}
	if len(jobs) == 0 {
		return nil
	}
	perPass := map[string][]float64{}
	for pass := 0; pass < probePasses; pass++ {
		st := stageTimes{}
		kib := 0.0
		for i := range jobs {
			if f64 {
				coreStages64(&jobs[i].p, jobs[i].c64, st)
			} else {
				coreStages32(&jobs[i].p, jobs[i].c32, st)
			}
			kib += jobs[i].rawKiB
		}
		st["pack"] = st["chunk_encode"] - st["quantize"] - st["delta"] - st["shuffle"] - st["zero_elim"]
		st["unpack"] = st["chunk_decode"] - st["zero_elim_decode"] - st["unshuffle"] - st["undelta"] - st["dequantize"]
		for k, v := range st {
			perPass[k] = append(perPass[k], v/kib)
		}
	}
	suffix := ".f32"
	if f64 {
		suffix = ".f64"
	}
	for _, name := range coreStages {
		rep.set("core."+name+"_ns_per_kib"+suffix, median(perPass[name]), probePasses)
	}
	return nil
}

// probeStreams reports the raw-chunk share and the frame digest cost over
// the workload's reference streams.
func probeStreams(rep *report, streams [][]byte) error {
	var chunks, raws int
	var kib float64
	for _, s := range streams {
		c, r, _, err := pfpl.ChunkOutcomes(s)
		if err != nil {
			return fmt.Errorf("ChunkOutcomes: %w", err)
		}
		chunks += c
		raws += r
		kib += float64(len(s)) / 1024
	}
	rep.set("core.raw_chunk_share", float64(raws)/float64(max(chunks, 1)), chunks)
	var per []float64
	for pass := 0; pass < probePasses; pass++ {
		t := time.Now()
		for _, s := range streams {
			core.FrameDigest(s)
		}
		per = append(per, float64(time.Since(t))/kib)
	}
	rep.set("core.frame_digest_ns_per_kib", median(per), probePasses)
	return nil
}

// timeMedian runs fn passes times and returns the median wall time in
// seconds.
func timeMedian(passes int, fn func() error) (float64, error) {
	var ds []float64
	for i := 0; i < passes; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t).Seconds())
	}
	return median(ds), nil
}

// probeExecutors compares the 1-worker serial device with the default
// device on the same fields.
func probeExecutors(rep *report, fields []*field) error {
	workers := float64(runtime.GOMAXPROCS(0))
	raw := 0
	for _, f := range fields {
		raw += f.rawBytes()
	}
	streams := make([][]byte, len(fields))
	compress := func(dev pfpl.Device) func() error {
		return func() error {
			for i, f := range fields {
				c, err := f.compress(dev)
				if err != nil {
					return err
				}
				streams[i] = c
			}
			return nil
		}
	}
	decompress := func(dev pfpl.Device) func() error {
		return func() error {
			for i, f := range fields {
				if err := f.decompress(streams[i], dev); err != nil {
					return err
				}
			}
			return nil
		}
	}
	serialC, err := timeMedian(3, compress(pfpl.Serial()))
	if err != nil {
		return err
	}
	serialD, err := timeMedian(3, decompress(pfpl.Serial()))
	if err != nil {
		return err
	}
	parC, err := timeMedian(3, compress(nil))
	if err != nil {
		return err
	}
	parD, err := timeMedian(3, decompress(nil))
	if err != nil {
		return err
	}
	rep.set("cpucomp.serial_compress_mbps", float64(raw)/1e6/serialC, 3)
	rep.set("cpucomp.serial_decompress_mbps", float64(raw)/1e6/serialD, 3)
	rep.set("cpucomp.parallel_efficiency", serialC/(parC*workers), 3)
	rep.set("cpucomp.decode_parallel_efficiency", serialD/(parD*workers), 3)
	return nil
}

// batchSet is a list of small f32 fields sharing one bound, as a DAQ
// producer or the /v1/batch coalescer hands them over.
type batchSet struct {
	fields [][]float32
	mode   pfpl.Mode
	bound  float64
}

func (b *batchSet) opts(dev pfpl.Device) pfpl.Options {
	return pfpl.Options{Mode: b.mode, Bound: b.bound, Device: dev}
}

// probeBatch compares the one-dispatch batch path with a per-field loop
// over the same fields on the default device, and estimates the dispatch
// cost per field as batch wall minus the chunk work spread over workers.
func probeBatch(rep *report, b *batchSet, seed uint64) error {
	opts := b.opts(nil)
	var packed []byte
	batchC, err := timeMedian(3, func() (err error) {
		packed, err = pfpl.CompressBatch32(b.fields, opts)
		return err
	})
	if err != nil {
		return err
	}
	comps := make([][]byte, len(b.fields))
	loopC, err := timeMedian(3, func() error {
		for i, f := range b.fields {
			c, err := pfpl.Compress32(f, opts)
			if err != nil {
				return err
			}
			comps[i] = c
		}
		return nil
	})
	if err != nil {
		return err
	}
	batchD, err := timeMedian(3, func() error {
		_, err := pfpl.DecompressBatch32(packed, opts)
		return err
	})
	if err != nil {
		return err
	}
	loopD, err := timeMedian(3, func() error {
		for _, c := range comps {
			if _, err := pfpl.Decompress32(c, nil, opts); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("cpucomp.batch_over_per_field", loopC/batchC, 3)
	rep.set("cpucomp.batch_decode_over_per_field", loopD/batchD, 3)

	// Summed chunk time: every chunk of every field through EncodeChunk32
	// on one goroutine.
	var s core.Scratch32
	chunkNS, err := timeMedian(3, func() error {
		for _, f := range b.fields {
			p, err := core.NewParams(b.mode, b.bound, core.Range32(f), false)
			if err != nil {
				return err
			}
			for off := 0; off < len(f); off += core.ChunkWords32 {
				core.EncodeChunk32(&p, f[off:min(off+core.ChunkWords32, len(f))], &s)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	workers := float64(runtime.GOMAXPROCS(0))
	rep.set("cpucomp.dispatch_us_per_field", (batchC-chunkNS/workers)*1e6/float64(len(b.fields)), 3)

	// OpenBatch plus one Field32 read, at seeded field positions.
	r := newRNG(seed ^ 0xba7c)
	const reads = 64
	var dst []float32
	t := time.Now()
	for i := 0; i < reads; i++ {
		bt, err := pfpl.OpenBatch(packed)
		if err != nil {
			return err
		}
		if dst, err = bt.Field32(int(r.next()%uint64(bt.Count())), dst, opts); err != nil {
			return err
		}
	}
	rep.set("pfpl.batch_field_read_us", float64(time.Since(t))/1e3/reads, reads)
	return nil
}

// probeStreaming compares the framed writer at the server's frame size
// with one-shot Compress32 on the same values, and times indexed range
// reads of 65536 values.
func probeStreaming(rep *report, vals []float32, mode pfpl.Mode, bound float64, seed uint64) error {
	opts := pfpl.Options{Mode: mode, Bound: bound}
	var buf bytes.Buffer
	stream := func(index bool) error {
		buf.Reset()
		w, err := pfpl.NewWriter32(&buf, opts, pfpl.StreamOptions{FrameValues: 1 << 18, Index: index})
		if err != nil {
			return err
		}
		if err := w.Write(vals); err != nil {
			return err
		}
		return w.Close()
	}
	streamT, err := timeMedian(3, func() error { return stream(false) })
	if err != nil {
		return err
	}
	oneShot, err := timeMedian(3, func() error {
		_, err := pfpl.Compress32(vals, opts)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("pfpl.stream_overhead_share", streamT/oneShot-1, 3)

	if err := stream(true); err != nil {
		return err
	}
	x, err := pfpl.OpenIndexed(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		return err
	}
	const count = 65536
	const reads = 64
	r := newRNG(seed ^ 0x7a9e)
	before := x.Stats().ChunksDecoded
	t := time.Now()
	for i := 0; i < reads; i++ {
		off := int64(r.next() % uint64(len(vals)-count))
		if _, err := x.Range32(off, count); err != nil {
			return err
		}
	}
	rep.set("pfpl.range_read_us", float64(time.Since(t))/1e3/reads, reads)
	rep.set("pfpl.range_chunks_decoded", float64(x.Stats().ChunksDecoded-before)/reads, reads)
	return nil
}

// probeLayers runs every library-layer probe on the workload's data.
// batch may be nil: the workload's f32 fields then form the batch.
func probeLayers(rep *report, fields []*field, batch *batchSet, seed uint64) error {
	t := time.Now()
	for _, f64 := range []bool{false, true} {
		if err := probeCore(rep, fields, f64); err != nil {
			return err
		}
	}
	var streams [][]byte
	var f32s []*field
	for _, f := range fields {
		if f.ref == nil {
			if err := f.setReference(); err != nil {
				return err
			}
		}
		streams = append(streams, f.ref)
		if !f.f64 {
			f32s = append(f32s, f)
		}
	}
	if len(f32s) == 0 {
		return fmt.Errorf("no f32 field to probe")
	}
	if err := probeStreams(rep, streams); err != nil {
		return err
	}
	if err := probeExecutors(rep, fields); err != nil {
		return err
	}
	if batch == nil {
		batch = &batchSet{mode: f32s[0].mode, bound: f32s[0].bound}
		for _, f := range f32s {
			batch.fields = append(batch.fields, f.v32)
		}
	}
	if err := probeBatch(rep, batch, seed); err != nil {
		return err
	}
	// Streams need several frames: the largest field, or all fields end
	// to end when each is small.
	big := f32s[0]
	for _, f := range f32s {
		if len(f.v32) > len(big.v32) {
			big = f
		}
	}
	vals := big.v32
	if len(vals) < 4<<18 {
		vals = nil
		for _, f := range f32s {
			vals = append(vals, f.v32...)
		}
	}
	if err := probeStreaming(rep, vals, big.mode, big.bound, seed); err != nil {
		return err
	}
	fmt.Printf("probes: %.2f s\n", time.Since(t).Seconds())
	return nil
}
