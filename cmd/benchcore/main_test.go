package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestRunEmitsValidReport runs the whole harness at a tiny budget and
// checks the JSON schema: every stage has a fast and a ref entry, every
// measurement reports positive throughput, the zero-elim speedups are
// present (the acceptance numbers the optimized kernels are pinned to), and
// every row exists at each measured GOMAXPROCS setting.
func TestRunEmitsValidReport(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement pass skipped in short mode")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	batchOut := filepath.Join(t.TempDir(), "bench_batch.json")
	if err := run(2*time.Millisecond, out, batchOut, 4); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rep.Stages) == 0 || len(rep.Executors) == 0 || len(rep.Speedups) == 0 {
		t.Fatalf("empty report sections: %d stages, %d executors, %d speedups",
			len(rep.Stages), len(rep.Executors), len(rep.Speedups))
	}
	impls := map[string]map[string]bool{}
	for _, r := range rep.Stages {
		if !(r.GBPerS > 0) || !(r.NsPerOp > 0) || r.BytesPerOp <= 0 {
			t.Errorf("%s: non-positive measurement %+v", r.Name, r)
		}
		if impls[r.Stage] == nil {
			impls[r.Stage] = map[string]bool{}
		}
		impls[r.Stage][r.Impl] = true
	}
	for _, stage := range []string{"quantize", "delta", "shuffle", "zeroelim"} {
		if !impls[stage]["fast"] || !impls[stage]["ref"] {
			t.Errorf("stage %q missing fast or ref entries: %v", stage, impls[stage])
		}
	}
	sawZeroElim := false
	for _, s := range rep.Speedups {
		if s.FastOverRef <= 0 {
			t.Errorf("speedup %s is non-positive: %g", s.Name, s.FastOverRef)
		}
		if s.Name == "zero_elim_encode/32/shuffled-smooth" {
			sawZeroElim = true
		}
	}
	if !sawZeroElim {
		t.Error("zero-elim encode speedup entry missing")
	}
	for _, r := range rep.Executors {
		if !(r.GBPerS > 0) {
			t.Errorf("%s: non-positive throughput", r.Name)
		}
	}
	// Every row is measured at each listed GOMAXPROCS setting, and the
	// REL quantizer rows exist at each.
	if len(rep.GOMAXPROCS) == 0 || rep.GOMAXPROCS[0] != 1 {
		t.Fatalf("gomaxprocs settings %v, want 1 first", rep.GOMAXPROCS)
	}
	for _, procs := range rep.GOMAXPROCS {
		stages, execs, relQuant := 0, 0, 0
		for _, r := range rep.Stages {
			if r.GOMAXPROCS == procs {
				stages++
				if r.Name == "quantize/32/rel" {
					relQuant++
				}
			}
		}
		for _, r := range rep.Executors {
			if r.GOMAXPROCS == procs {
				execs++
			}
		}
		if stages*len(rep.GOMAXPROCS) != len(rep.Stages) || execs*len(rep.GOMAXPROCS) != len(rep.Executors) || relQuant != 1 {
			t.Errorf("gomaxprocs %d: %d of %d stage rows, %d of %d executor rows, %d quantize/32/rel rows",
				procs, stages, len(rep.Stages), execs, len(rep.Executors), relQuant)
		}
	}

	// Batch report schema: every executor reports both ops with positive
	// throughput on both sides of the batch-vs-per-field comparison.
	bbuf, err := os.ReadFile(batchOut)
	if err != nil {
		t.Fatal(err)
	}
	var brep BatchReport
	if err := json.Unmarshal(bbuf, &brep); err != nil {
		t.Fatalf("invalid batch JSON: %v", err)
	}
	if len(brep.Results) == 0 {
		t.Fatal("empty batch report")
	}
	ops := map[string]int{}
	for _, r := range brep.Results {
		if !(r.PerFieldGBPS > 0) || !(r.BatchGBPS > 0) || !(r.Speedup > 0) {
			t.Errorf("batch %s/%s: non-positive measurement %+v", r.Executor, r.Op, r)
		}
		ops[r.Op]++
	}
	if ops["compress"] == 0 || ops["decompress"] == 0 {
		t.Errorf("batch report missing an op side: %v", ops)
	}
}
