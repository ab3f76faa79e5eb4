package main

import (
	"fmt"
	"time"

	"pfpl"
)

// bulkSpecs are the bulk-fields inputs: 8–32 MB fields in both precisions,
// one per sdrbench shape and error-bound mode. Sizes are fixed; the seed
// only changes values.
var bulkSpecs = []spec{
	{smooth, 4 << 20, pfpl.ABS, 1e-2, false},    // 16 MB
	{lognormal, 2 << 20, pfpl.REL, 1e-2, false}, // 8 MB
	{particles, 3 << 20, pfpl.NOA, 1e-4, false}, // 12 MB
	{smooth, 2 << 20, pfpl.NOA, 1e-6, true},     // 16 MB
	{lognormal, 3 << 19, pfpl.REL, 1e-4, true},  // 12 MB
	{particles, 1 << 20, pfpl.ABS, 1e-4, true},  // 8 MB
}

func bulkFields(seed uint64) []*field {
	r := newRNG(seed)
	fs := make([]*field, len(bulkSpecs))
	for i, s := range bulkSpecs {
		fs[i] = newField(s, r)
	}
	return fs
}

// coldBulk times the first compress and decompress call of the default
// device in a fresh process, on the workload's first field.
func coldBulk(seed uint64) (time.Duration, error) {
	f := newField(bulkSpecs[0], newRNG(seed))
	t0 := time.Now()
	comp, err := f.compress(nil)
	if err != nil {
		return 0, err
	}
	if err := f.decompress(comp, nil); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// runBulk: one caller, closed loop. Each operation compresses one field
// with the default device (Options.Device nil) and decompresses it into a
// reused buffer; the stream is then compared with the serial reference and
// the values with the bound, outside the timed calls.
func runBulk(cfg *config, rep *report) error {
	fields := bulkFields(cfg.seed)
	var raw, comp int
	for _, f := range fields {
		if err := f.setReference(); err != nil {
			return err
		}
		raw += f.rawBytes()
		comp += len(f.ref)
		fmt.Printf("input: %v -> %d bytes\n", f, len(f.ref))
	}
	if !cfg.trace {
		s, err := coldSetup(cfg.workload, cfg.seed)
		if err != nil {
			return err
		}
		rep.set("setup_s", s, coldRuns)
	}
	// Warm-up: one untimed pass lets the heap and caches reach steady state.
	for _, f := range fields {
		c, err := f.compress(nil)
		if err == nil {
			err = f.decompress(c, nil)
		}
		if err != nil {
			return fmt.Errorf("warm-up %v: %w", f, err)
		}
	}

	var tr *tracer
	seconds := cfg.seconds
	if cfg.trace {
		tr = newTracer()
		seconds *= 0.6
	}
	var enc, dec [2]throughput // by precision: 0 f32, 1 f64
	var lat []float64
	var ot opTimer
	cpu := startCPU()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for op := 0; time.Now().Before(deadline); op++ {
		f := fields[op%len(fields)]
		traced := tr != nil && (op/len(fields))%2 == 0 // whole rotations, so both halves see every field
		t0 := time.Now()
		c, cerr := f.compress(nil)
		t1 := time.Now()
		var derr error
		if cerr == nil {
			derr = f.decompress(c, nil)
		}
		t2 := time.Now()
		if traced {
			id := tr.add("bulk.op", "op", -1, int64(op), t0, t2)
			tr.add("pfpl.Compress", "pfpl", id, int64(op), t0, t1)
			tr.add("pfpl.Decompress", "pfpl", id, int64(op), t1, t2)
		}
		if !rep.check(f.String(), firstErr(cerr, derr, f.checkStream(c), f.checkDecoded())) {
			continue
		}
		p := 0
		if f.f64 {
			p = 1
		}
		enc[p].add(f, f.rawBytes(), t1.Sub(t0))
		dec[p].add(f, f.rawBytes(), t2.Sub(t1))
		lat = append(lat, float64(t2.Sub(t0))/1e6)
		ot.add(traced, t2.Sub(t0))
	}

	printClosedLoop(cpu)
	if tr != nil {
		ot.report(rep)
		tr.budget(rep)
		if err := probeLayers(rep, fields, nil, cfg.seed); err != nil {
			return err
		}
		return tr.write(cfg.traceOut)
	}
	reportEndToEnd(rep, &enc, &dec, float64(raw)/float64(comp), len(fields), lat, 90, selfPeakRSSMB())
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
