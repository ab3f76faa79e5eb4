// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one workload for a fixed time, checks every output,
// and prints one JSON result line last:
//
//	go build -o .bench_build/perfbench ./perfbench   (or: python3 perfbench/run.py ...)
//	perfbench -workload bulk-fields -seed 1 -seconds 25 -trace 0
//
// -trace 0 reports the end-to-end metrics; -trace 1 runs the workload with
// spans recorded around every call into the program and reports the
// per-layer metrics instead. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Metric tables. They must match BENCHMARK.json (pinned by main_test.go).
var endToEnd = []struct{ name, unit string }{
	{"compress_f32_mbps", "MB/s"},
	{"decompress_f32_mbps", "MB/s"},
	{"compress_f64_mbps", "MB/s"},
	{"decompress_f64_mbps", "MB/s"},
	{"compression_ratio", "x"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"success_rate", "share"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var coreStages = []string{
	"quantize", "dequantize", "delta", "undelta", "shuffle", "zero_elim",
	"zero_elim_decode", "chunk_encode", "chunk_decode", "pack", "unpack",
}

var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(name, unit string) { out = append(out, struct{ name, unit string }{name, unit}) }
	for _, st := range coreStages {
		add("core."+st+"_ns_per_kib.f32", "ns/KiB")
		add("core."+st+"_ns_per_kib.f64", "ns/KiB")
	}
	add("core.raw_chunk_share", "share")
	add("core.frame_digest_ns_per_kib", "ns/KiB")
	add("cpucomp.serial_compress_mbps", "MB/s")
	add("cpucomp.serial_decompress_mbps", "MB/s")
	add("cpucomp.parallel_efficiency", "share")
	add("cpucomp.decode_parallel_efficiency", "share")
	add("cpucomp.batch_over_per_field", "x")
	add("cpucomp.batch_decode_over_per_field", "x")
	add("cpucomp.dispatch_us_per_field", "us")
	add("pfpl.stream_overhead_share", "share")
	add("pfpl.batch_field_read_us", "us")
	add("pfpl.range_read_us", "us")
	add("pfpl.range_chunks_decoded", "count")
	for _, r := range serveRoutes {
		add("server."+r+"_p50_ms", "ms")
	}
	add("server.handler_share", "share")
	add("server.slot_wait_ms_mean", "ms")
	add("server.batch_fields_mean", "count")
	add("server.rejected_share", "share")
	add("server.audit_bound_fail", "count")
	add("server.cache_hit_ratio", "share")
	add("server.chunks_decoded_per_range", "count")
	add("server.raw_chunk_share", "share")
	add("loadgen.late_ms_p99", "ms")
	add("loadgen.late_ms_max", "ms")
	add("loadgen.cpu_share", "share")
	add("trace.overhead_share", "share")
	add("op.pfpl_share", "share")
	add("op.http_share", "share")
	add("op.loadgen_share", "share")
	add("op.unaccounted_share", "share")
	return out
}()

// serveRoutes are the request kinds of the serve-mixed mix.
var serveRoutes = []string{"compress", "decompress", "batch", "range", "put"}

type metric struct {
	value   float64
	samples int
}

// report collects one run's outcome. Every checked operation counts as
// attempted; every failed check, error or refused request counts as
// failed and is printed as it happens.
type report struct {
	attempted, failed int
	metrics           map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	fmt.Printf("FAIL: "+format+"\n", args...)
}

// check counts one operation as passed when err is nil, failed otherwise.
func (r *report) check(what string, err error) bool {
	if err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	r.attempted++
	return true
}

func (r *report) set(name string, v float64, samples int) {
	r.metrics[name] = metric{value: v, samples: samples}
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	pfplBin  string
	traceOut string
}

type workload struct {
	name string
	run  func(cfg *config, rep *report) error
	// cold measures one cold set-up in a fresh process (library workloads).
	cold func(seed uint64) (time.Duration, error)
}

var workloads = []workload{
	{name: "bulk-fields", run: runBulk, cold: coldBulk},
	{name: "daq-batch", run: runDAQ, cold: coldDAQ},
	{name: "serve-mixed", run: runServe},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: bulk-fields, daq-batch or serve-mixed")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	flag.StringVar(&cfg.pfplBin, "pfpl", "", "path of a built cmd/pfpl binary (serve-mixed)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "where the traced run writes its spans (JSON)")
	cold := flag.String("cold", "", "internal: time one cold set-up of this workload and exit")
	flag.Parse()
	cfg.trace = trace == 1

	if *cold != "" {
		w := findWorkload(*cold)
		if w == nil || w.cold == nil {
			fmt.Fprintln(os.Stderr, "perfbench: no cold set-up for", *cold)
			os.Exit(2)
		}
		d, err := w.cold(cfg.seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Printf("cold_s %.9f\n", d.Seconds())
		return
	}
	w := findWorkload(cfg.workload)
	if w == nil || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (bulk-fields, daq-batch, serve-mixed) and -seconds > 0")
		os.Exit(2)
	}
	printHost()
	rep := newReport()
	if err := w.run(&cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, &cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// printHost prints the facts a number needs to be read against.
func printHost() {
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// emit prints every metric of the pass as a readable line, then the
// result object as the last line.
func emit(f *os.File, cfg *config, rep *report) error {
	table := endToEnd
	if cfg.trace {
		table = perLayer
	}
	out := map[string]any{}
	for _, m := range table {
		v, ok := rep.metrics[m.name]
		note := fmt.Sprintf("n=%d", v.samples)
		if !ok {
			note = "not exercised by this workload"
		}
		fmt.Fprintf(f, "metric %-40s %14.6g %-7s %s\n", m.name, v.value, m.unit, note)
		out[m.name] = map[string]any{"value": v.value, "unit": m.unit}
	}
	var extra []string
	for name := range rep.metrics {
		if !inTable(table, name) {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics missing from the %s table: %v", map[bool]string{false: "end-to-end", true: "per-layer"}[cfg.trace], extra)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0 && rep.attempted > 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}

func inTable(table []struct{ name, unit string }, name string) bool {
	for _, m := range table {
		if m.name == name {
			return true
		}
	}
	return false
}

// selfPeakRSSMB is this process's peak resident set in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
