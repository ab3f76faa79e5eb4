package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"pfpl"
)

// The daq-batch shape: many small f32 fields of 1–64 KB, a quarter of them
// below one 16 KB chunk, one in ten pure sensor noise that falls back to
// raw storage. Every fourth operation is a smaller f64 batch instead.
const (
	daqFields32 = 1024
	daqFields64 = 256
	daqBound32  = 1e-2
	daqBound64  = 1e-4
	daqReads    = 4 // OpenBatch + Field32 reads per operation
)

// daqSizes are the field sizes in bytes. They come from a fixed stream, not
// the run seed, so every seed has the same sizes and only values vary.
func daqSizes(n int) []int {
	r := newRNG(0xDA0)
	sizes := make([]int, n)
	for i := range sizes {
		if i%4 == 0 {
			sizes[i] = 1024 + int(r.next()%(15*1024))
		} else {
			sizes[i] = int(16 * 1024 * math.Pow(4, r.float()))
		}
		sizes[i] &^= 7
	}
	return sizes
}

func daqShape(i int) shape {
	switch i % 10 {
	case 9:
		return sensor
	case 6, 7, 8:
		return particles
	}
	return smooth
}

// daqSet is one batch: its fields, the serial reference container and the
// bound every field shares.
type daqSet struct {
	fields []*field
	v32    [][]float32
	v64    [][]float64
	ref    []byte
	raw    int
	f64    bool
}

func newDAQSet(seed uint64, f64 bool) *daqSet {
	r := newRNG(seed ^ map[bool]uint64{false: 0x32, true: 0x64}[f64])
	n, bound, elem := daqFields32, daqBound32, 4
	if f64 {
		n, bound, elem = daqFields64, daqBound64, 8
	}
	d := &daqSet{f64: f64}
	for i, size := range daqSizes(n) {
		f := newField(spec{daqShape(i), size / elem, pfpl.ABS, bound, f64}, r)
		d.fields = append(d.fields, f)
		d.raw += f.rawBytes()
		if f64 {
			d.v64 = append(d.v64, f.v64)
		} else {
			d.v32 = append(d.v32, f.v32)
		}
	}
	return d
}

func (d *daqSet) opts(dev pfpl.Device) pfpl.Options { return d.fields[0].opts(dev) }

func (d *daqSet) compress(dev pfpl.Device) ([]byte, error) {
	if d.f64 {
		return pfpl.CompressBatch64(d.v64, d.opts(dev))
	}
	return pfpl.CompressBatch32(d.v32, d.opts(dev))
}

// decompress decodes the whole container and checks every field against
// its bound; the check runs after the timed call.
func (d *daqSet) decompress(buf []byte) (time.Duration, func() error, error) {
	t := time.Now()
	if d.f64 {
		out, err := pfpl.DecompressBatch64(buf, d.opts(nil))
		dt := time.Since(t)
		return dt, func() error {
			return d.checkAll(len(out), func(i int) error { return checkBound(d.v64[i], out[i], pfpl.ABS, daqBound64) })
		}, err
	}
	out, err := pfpl.DecompressBatch32(buf, d.opts(nil))
	dt := time.Since(t)
	return dt, func() error {
		return d.checkAll(len(out), func(i int) error { return checkBound(d.v32[i], out[i], pfpl.ABS, daqBound32) })
	}, err
}

func (d *daqSet) checkAll(got int, check func(i int) error) error {
	if got != len(d.fields) {
		return fmt.Errorf("batch decoded %d fields, want %d", got, len(d.fields))
	}
	for i := range d.fields {
		if err := check(i); err != nil {
			return fmt.Errorf("field %d: %w", i, err)
		}
	}
	return nil
}

// readFields opens the container and reads daqReads fields through the
// random-access path; the returned check compares them with the bound.
func (d *daqSet) readFields(buf []byte, r *rng) (func() error, error) {
	b, err := pfpl.OpenBatch(buf)
	if err != nil {
		return nil, err
	}
	var checks []func() error
	for k := 0; k < daqReads; k++ {
		i := int(r.next() % uint64(len(d.fields)))
		f := d.fields[i]
		if d.f64 {
			v, err := b.Field64(i, nil, f.opts(nil))
			if err != nil {
				return nil, err
			}
			checks = append(checks, func() error { return checkBound(f.v64, v, pfpl.ABS, f.bound) })
		} else {
			v, err := b.Field32(i, nil, f.opts(nil))
			if err != nil {
				return nil, err
			}
			checks = append(checks, func() error { return checkBound(f.v32, v, pfpl.ABS, f.bound) })
		}
	}
	return func() error {
		for _, check := range checks {
			if err := check(); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// coldDAQ times the first CompressBatch32 and DecompressBatch32 of the
// default device in a fresh process.
func coldDAQ(seed uint64) (time.Duration, error) {
	d := newDAQSet(seed, false)
	t0 := time.Now()
	c, err := d.compress(nil)
	if err != nil {
		return 0, err
	}
	_, _, err = d.decompress(c)
	return time.Since(t0), err
}

// runDAQ: one caller, closed loop. Each operation compresses a whole batch
// with CompressBatch32 (every fourth: CompressBatch64), reads a few fields
// through OpenBatch, and decompresses the container with DecompressBatch*.
func runDAQ(cfg *config, rep *report) error {
	sets := []*daqSet{newDAQSet(cfg.seed, false), newDAQSet(cfg.seed, true)}
	for _, d := range sets {
		ref, err := d.compress(pfpl.Serial())
		if err != nil {
			return fmt.Errorf("daq reference: %w", err)
		}
		d.ref = ref
		_, check, err := d.decompress(ref)
		if err == nil {
			err = check()
		}
		if err != nil {
			return fmt.Errorf("daq reference: %w", err)
		}
		fmt.Printf("input: batch of %d %s fields, %d bytes -> %d bytes\n",
			len(d.fields), map[bool]string{false: "f32", true: "f64"}[d.f64], d.raw, len(ref))
	}
	if !cfg.trace {
		s, err := coldSetup(cfg.workload, cfg.seed)
		if err != nil {
			return err
		}
		rep.set("setup_s", s, coldRuns)
	}
	for _, d := range sets { // warm-up
		c, err := d.compress(nil)
		if err == nil {
			_, _, err = d.decompress(c)
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	var tr *tracer
	seconds := cfg.seconds
	if cfg.trace {
		tr = newTracer()
		seconds *= 0.6
	}
	var enc, dec [2]throughput
	var lat []float64
	var ot opTimer
	r := newRNG(cfg.seed ^ 0x5eed)
	cpu := startCPU()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for op := 0; time.Now().Before(deadline); op++ {
		p := 0
		if op%4 == 3 {
			p = 1
		}
		d := sets[p]
		traced := tr != nil && (op/4)%2 == 0
		t0 := time.Now()
		c, err := d.compress(nil)
		t1 := time.Now()
		if err != nil {
			rep.fail("daq compress: %v", err)
			continue
		}
		checkReads, err := d.readFields(c, r)
		t2 := time.Now()
		if err != nil {
			rep.fail("daq field reads: %v", err)
			continue
		}
		ddur, checkAll, err := d.decompress(c)
		t3 := t2.Add(ddur)
		if err != nil {
			rep.fail("daq decompress: %v", err)
			continue
		}
		if traced {
			id := tr.add("daq.op", "op", -1, int64(op), t0, t3)
			tr.add("pfpl.CompressBatch", "pfpl", id, int64(op), t0, t1)
			tr.add("pfpl.OpenBatch+Field", "pfpl", id, int64(op), t1, t2)
			tr.add("pfpl.DecompressBatch", "pfpl", id, int64(op), t2, t3)
		}
		var streamErr error
		if !bytes.Equal(c, d.ref) {
			streamErr = fmt.Errorf("batch container differs from the pfpl.Serial() reference")
		}
		if !rep.check("daq batch", firstErr(streamErr, checkReads(), checkAll())) {
			continue
		}
		enc[p].add(d, d.raw, t1.Sub(t0))
		dec[p].add(d, d.raw, ddur)
		if p == 0 {
			lat = append(lat, float64(t1.Sub(t0))/1e6)
		}
		ot.add(traced, t3.Sub(t0))
	}

	printClosedLoop(cpu)
	if tr != nil {
		ot.report(rep)
		tr.budget(rep)
		all := append(append([]*field(nil), sets[0].fields...), sets[1].fields...)
		b := &batchSet{fields: sets[0].v32, mode: pfpl.ABS, bound: daqBound32}
		if err := probeLayers(rep, all, b, cfg.seed); err != nil {
			return err
		}
		return tr.write(cfg.traceOut)
	}
	reportEndToEnd(rep, &enc, &dec, float64(sets[0].raw+sets[1].raw)/float64(len(sets[0].ref)+len(sets[1].ref)), 2, lat, 90, selfPeakRSSMB())
	return nil
}
