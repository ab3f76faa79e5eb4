package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pfpl"
)

type benchJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		json []struct{ Name, Unit string }
		code []struct{ name, unit string }
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", tc.name, len(tc.json), len(tc.code))
		}
		for i := range tc.json {
			if tc.json[i].Name != tc.code[i].name || tc.json[i].Unit != tc.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, code %s %s", tc.name, i, tc.json[i].Name, tc.json[i].Unit, tc.code[i].name, tc.code[i].unit)
			}
		}
	}
	for _, w := range bj.Workload {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}

// A tampered stream or a tampered decoded value must count as a failure.
func TestTamperedOutputFails(t *testing.T) {
	for _, s := range []spec{
		{smooth, 5000, pfpl.ABS, 1e-2, false},
		{lognormal, 3000, pfpl.REL, 1e-3, true},
		{particles, 7000, pfpl.NOA, 1e-4, false},
	} {
		f := newField(s, newRNG(5))
		if err := f.setReference(); err != nil {
			t.Fatal(err)
		}
		rep := newReport()
		rep.check("untouched", firstErr(f.checkStream(f.ref), f.checkDecoded()))

		bad := append([]byte(nil), f.ref...)
		bad[len(bad)-1] ^= 0x40
		rep.check("tampered stream", f.checkStream(bad))

		if s.f64 {
			f.dst64[17] += 1
		} else {
			f.dst32[17] += 1
		}
		rep.check("tampered value", f.checkDecoded())
		if rep.attempted != 3 || rep.failed != 2 {
			t.Errorf("%v: attempted %d failed %d, want 3 and 2", f, rep.attempted, rep.failed)
		}
	}
}

func TestServedResponseTamperFails(t *testing.T) {
	in := &serveInput{route: "compress", want: []byte{1, 2, 3}}
	q := &request{kind: "c32", in: in, code: 200}
	if err := q.check(nil, []byte{1, 2, 3}); err != nil {
		t.Fatalf("identical response: %v", err)
	}
	if q.check(nil, []byte{1, 2, 4}) == nil {
		t.Error("tampered response passed")
	}
	q.code = 429
	if q.check(nil, []byte{1, 2, 3}) == nil {
		t.Error("429 passed")
	}
}

func TestBoundChecker(t *testing.T) {
	for _, tc := range []struct {
		mode      pfpl.Mode
		bound     float64
		orig, rec []float64
		ok        bool
	}{
		{pfpl.ABS, 0.1, []float64{1, 2}, []float64{1.05, 1.95}, true},
		{pfpl.ABS, 0.1, []float64{1, 2}, []float64{1.2, 2}, false},
		{pfpl.REL, 0.1, []float64{-10}, []float64{-9.5}, true},
		{pfpl.REL, 0.1, []float64{0}, []float64{1e-30}, false},
		{pfpl.NOA, 0.1, []float64{0, 10}, []float64{0.9, 10}, true},
		{pfpl.NOA, 0.1, []float64{0, 10}, []float64{1.1, 10}, false},
	} {
		if err := checkBound(tc.orig, tc.rec, tc.mode, tc.bound); (err == nil) != tc.ok {
			t.Errorf("%v %g %v -> %v: got %v", tc.mode, tc.bound, tc.orig, tc.rec, err)
		}
	}
}

// runResult runs the built benchmark and returns its result line and every
// "metric" line.
func runBench(t *testing.T, bin, pfplBin string, args ...string) (map[string]any, map[string]string) {
	t.Helper()
	out, err := exec.Command(bin, append(args, "-pfpl", pfplBin)...).Output()
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not JSON: %v", args, err)
	}
	printed := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 4 && f[0] == "metric" {
			printed[f[1]] = f[3]
		}
	}
	return res, printed
}

// A short run of each workload prints every end-to-end metric with its
// unit, checks its outputs, and the same seed gives the same ratio twice.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every workload")
	}
	dir := t.TempDir()
	bin, pfplBin := filepath.Join(dir, "perfbench"), filepath.Join(dir, "pfpl")
	for _, b := range [][]string{{"-o", bin, "."}, {"-o", pfplBin, "pfpl/cmd/pfpl"}} {
		if out, err := exec.Command("go", append([]string{"build"}, b...)...).CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", b, err, out)
		}
	}
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", "3", "-seconds", "1"}
		res, printed := runBench(t, bin, pfplBin, args...)
		if res["correct"] != true || res["failed"].(float64) != 0 || res["attempted"].(float64) < 1 {
			t.Errorf("%s: result %v", w.name, res)
		}
		metrics := res["metrics"].(map[string]any)
		for _, m := range endToEnd {
			v, ok := metrics[m.name].(map[string]any)
			if !ok || v["unit"] != m.unit || printed[m.name] != m.unit {
				t.Errorf("%s: metric %s missing or without unit %s: %v, printed %q", w.name, m.name, m.unit, v, printed[m.name])
				continue
			}
			if x, _ := v["value"].(float64); x <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.name, x)
			}
		}
		again, _ := runBench(t, bin, pfplBin, args...)
		r1 := metrics["compression_ratio"].(map[string]any)["value"]
		r2 := again["metrics"].(map[string]any)["compression_ratio"].(map[string]any)["value"]
		if r1 != r2 {
			t.Errorf("%s: compression_ratio %v then %v for the same seed", w.name, r1, r2)
		}
	}
}
