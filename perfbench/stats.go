package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// reportLatency sets latency_p50_ms and latency_tail_ms from samples in
// milliseconds. tailPct is fixed per workload (see README.md) so that every
// run reports the same percentile; a warning is printed when fewer than ten
// samples lie beyond it.
func reportLatency(rep *report, ms []float64, tailPct float64) {
	rep.set("latency_p50_ms", median(ms), len(ms))
	rep.set("latency_tail_ms", percentile(ms, tailPct), len(ms))
	beyond := float64(len(ms)) * (1 - tailPct/100)
	fmt.Printf("latency: %d samples, tail = p%g (%.0f samples beyond it)\n", len(ms), tailPct, beyond)
	if beyond < 10 {
		fmt.Printf("warning: fewer than 10 samples beyond p%g\n", tailPct)
	}
}

// reportEndToEnd sets the end-to-end metrics every workload computes the
// same way; setup_s is set by the workload itself.
func reportEndToEnd(rep *report, enc, dec *[2]throughput, ratio float64, ratioInputs int, lat []float64, tailPct, rssMB float64) {
	for p, prec := range []string{"f32", "f64"} {
		rep.set("compress_"+prec+"_mbps", enc[p].mbps(), enc[p].n)
		rep.set("decompress_"+prec+"_mbps", dec[p].mbps(), dec[p].n)
	}
	rep.set("compression_ratio", ratio, ratioInputs)
	reportLatency(rep, lat, tailPct)
	rep.set("success_rate", float64(rep.attempted-rep.failed)/float64(max(rep.attempted, 1)), rep.attempted)
	rep.set("peak_rss_mb", rssMB, 1)
}

// throughput is raw bytes over the wall time inside the calls. Each
// distinct input's call time is the mean of its calls with the fastest and
// slowest tenth dropped: on a host whose speed alternates between fast and
// slow stretches a mean moves smoothly where a median flips, and the trim
// keeps one stall from moving the figure.
type throughput struct {
	bytes map[any]int
	durs  map[any][]float64
	n     int
}

func (t *throughput) add(input any, bytes int, d time.Duration) {
	if t.durs == nil {
		t.bytes, t.durs = map[any]int{}, map[any][]float64{}
	}
	t.bytes[input] = bytes
	t.durs[input] = append(t.durs[input], d.Seconds())
	t.n++
}

func (t *throughput) mbps() float64 {
	var bytes, secs float64
	for k, ds := range t.durs {
		bytes += float64(t.bytes[k])
		secs += trimmedMean(ds)
	}
	if secs <= 0 {
		return 0
	}
	return bytes / 1e6 / secs
}

// trimmedMean is the mean of xs without its lowest and highest tenth.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/10 : len(s)-len(s)/10]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// span is one timed call recorded by the benchmark around a call into the
// program. Spans of one operation share Op; Parent is the index of the
// enclosing span or -1.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory; write dumps them when the run ends. A nil
// tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) add(name, layer string, parent int32, op int64, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, layer, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds(), parent, op})
	return int32(len(t.spans) - 1)
}

// budget splits the wall time of every operation span (layer "op") into
// the self time of its child spans, per layer, plus the part no child
// covers. The shares sum to 1.
func (t *tracer) budget(rep *report) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var opWall float64
	byLayer := map[string]float64{}
	ops := 0
	for _, s := range t.spans {
		if s.Layer == "op" {
			opWall += float64(s.End - s.Start)
			ops++
			continue
		}
		if s.Parent >= 0 && t.spans[s.Parent].Layer == "op" {
			byLayer[s.Layer] += float64(s.End - s.Start)
		}
	}
	if opWall == 0 {
		return
	}
	covered := 0.0
	for _, l := range []string{"pfpl", "http", "loadgen"} {
		rep.set("op."+l+"_share", byLayer[l]/opWall, ops)
		covered += byLayer[l]
	}
	rep.set("op.unaccounted_share", (opWall-covered)/opWall, ops)
	fmt.Printf("trace: %d ops, %d spans, op wall %.3f s\n", ops, len(t.spans), opWall/1e9)
}

func (t *tracer) write(path string) error {
	if path == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace: spans written to %s\n", path)
	return nil
}

// opTimer alternates traced and untraced operations in the traced run so
// that tracing overhead is measured against the same code under the same
// host drift.
type opTimer struct {
	traced, plain []float64
}

func (o *opTimer) add(traced bool, d time.Duration) {
	if traced {
		o.traced = append(o.traced, d.Seconds())
	} else {
		o.plain = append(o.plain, d.Seconds())
	}
}

func (o *opTimer) report(rep *report) {
	if p := median(o.plain); p > 0 {
		rep.set("trace.overhead_share", median(o.traced)/p-1, len(o.traced)+len(o.plain))
	}
}

// cpuMeter measures this process's CPU time over a phase as a share of
// all CPUs.
type cpuMeter struct {
	wall time.Time
	cpu  time.Duration
}

func startCPU() cpuMeter { return cpuMeter{time.Now(), selfCPU()} }

func (m cpuMeter) share() float64 {
	return (selfCPU() - m.cpu).Seconds() / time.Since(m.wall).Seconds() / float64(runtime.NumCPU())
}

// printClosedLoop prints the load-generator facts of a closed-loop
// library workload: no schedule to fall behind, and the CPU the caller and
// the program used together.
func printClosedLoop(m cpuMeter) {
	fmt.Printf("loadgen: closed loop, one caller; process CPU %.1f%% of %d CPUs\n", 100*m.share(), runtime.NumCPU())
}

// coldRuns is how many fresh processes measure set-up; the median is
// reported.
const coldRuns = 5

// coldSetup runs this binary coldRuns times in -cold mode and returns the
// median set-up time. Input generation happens in the child before its
// clock starts.
func coldSetup(workload string, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ds []float64
	for i := 0; i < coldRuns; i++ {
		out, err := exec.Command(exe, "-cold", workload, "-seed", strconv.FormatUint(seed, 10)).Output()
		if err != nil {
			return 0, fmt.Errorf("cold set-up run: %w", err)
		}
		f := strings.Fields(string(out))
		if len(f) != 2 || f[0] != "cold_s" {
			return 0, fmt.Errorf("cold set-up run printed %q", out)
		}
		d, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0, err
		}
		ds = append(ds, d)
	}
	fmt.Printf("setup: %d cold processes, seconds %v\n", coldRuns, ds)
	return median(ds), nil
}
