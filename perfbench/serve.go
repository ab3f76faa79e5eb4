package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"pfpl"
)

// serve-mixed drives an out-of-process `pfpl serve` open loop at a fixed
// rate. The rate keeps the daemon well under half busy on two cores, so
// latency is service time plus little queueing; see README.md.
const (
	serveSlotsPerSec = 60      // schedule slots per second (~82 requests/s)
	serveSetups      = 5       // server starts per run; setup_s is their median
	serveTailPct     = 99      // latency_tail_ms percentile (~2000 samples/run)
	serveFrame       = 1 << 18 // the daemon's default frame, in values
	serveObjValues   = 4 << 20 // values per range-read object (16 MB f32)
	serveRangeCount  = 65536   // values per range read
	serveBatchBound  = 1e-2    // /v1/batch bound (ABS)
	serveBatchValues = 4096    // 16 KB f32 per /v1/batch request
	serveBurst       = 4       // /v1/batch requests sharing one due time
	serveWorkers     = 64      // client goroutines; connections are capped separately
	serveMaxWait     = 60 * time.Second
)

// The request schedule: one entry per slot, repeated. "batch" slots send a
// burst of serveBurst requests at one due time so the coalescer has
// company, as concurrent DAQ producers would give it.
var serveCycle = []string{
	"c32", "batch", "d32", "range", "c64", "d64", "range", "c32",
	"batch", "d32", "range", "put", "c64", "d64", "c32", "range",
}

// serveInput is one distinct request body and the verified response every
// repetition of it must reproduce byte for byte.
type serveInput struct {
	route  string // compress, decompress, batch, put
	method string
	path   string
	body   []byte
	raw    int // raw float bytes the request carries in or out
	want   []byte
	verify func(resp []byte) error // checks the first response against the bound
}

type serveData struct {
	c32, c64, d32, d64, batch, put []*serveInput
	objects                        [][]float32 // range-read objects obj-<i>
	objStreams                     [][]byte
	fields                         []*field // every generated field, for the layer probes
	batchSet                       *batchSet
	ratioRaw, ratioComp            int
}

// floatsBytes is the raw little-endian body the daemon takes and returns.
func floatsBytes[F float32 | float64](v []F) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, v) // writes to a bytes.Buffer cannot fail
	return buf.Bytes()
}

func bytesFloats[F float32 | float64](b []byte) ([]F, error) {
	size := binary.Size(F(0))
	if len(b)%size != 0 {
		return nil, fmt.Errorf("%d bytes is not whole %d-byte floats", len(b), size)
	}
	v := make([]F, len(b)/size)
	return v, binary.Read(bytes.NewReader(b), binary.LittleEndian, v)
}

// framed compresses vals as the daemon's framed stream format.
func framed32(v []float32, mode pfpl.Mode, bound float64, index bool) ([]byte, error) {
	var buf bytes.Buffer
	w, err := pfpl.NewWriter32(&buf, pfpl.Options{Mode: mode, Bound: bound}, pfpl.StreamOptions{FrameValues: serveFrame, Index: index})
	if err != nil {
		return nil, err
	}
	if err := w.Write(v); err != nil {
		return nil, err
	}
	err = w.Close()
	return buf.Bytes(), err
}

func framed64(v []float64, mode pfpl.Mode, bound float64) ([]byte, error) {
	var buf bytes.Buffer
	w, err := pfpl.NewWriter64(&buf, pfpl.Options{Mode: mode, Bound: bound}, pfpl.StreamOptions{FrameValues: serveFrame})
	if err != nil {
		return nil, err
	}
	if err := w.Write(v); err != nil {
		return nil, err
	}
	err = w.Close()
	return buf.Bytes(), err
}

// unframe reads a whole framed stream through a Reader32 or Reader64.
func unframe[F float32 | float64](r interface{ Read([]F) (int, error) }) ([]F, error) {
	var out []F
	buf := make([]F, 1<<15)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

var modeNames = map[pfpl.Mode]string{pfpl.ABS: "abs", pfpl.REL: "rel", pfpl.NOA: "noa"}

// serveSpecs are the 1 MB /v1/compress fields, four per precision.
var serveSpecs = []spec{
	{smooth, 1 << 18, pfpl.ABS, 1e-2, false},
	{lognormal, 1 << 18, pfpl.REL, 1e-2, false},
	{particles, 1 << 18, pfpl.NOA, 1e-4, false},
	{smooth, 1 << 18, pfpl.NOA, 1e-5, false},
	{smooth, 1 << 17, pfpl.NOA, 1e-6, true},
	{lognormal, 1 << 17, pfpl.REL, 1e-4, true},
	{particles, 1 << 17, pfpl.ABS, 1e-4, true},
	{smooth, 1 << 17, pfpl.ABS, 1e-3, true},
}

func newServeData(seed uint64) (*serveData, error) {
	r := newRNG(seed ^ 0x5e7e)
	d := &serveData{}
	for _, s := range serveSpecs {
		f := newField(s, r)
		d.fields = append(d.fields, f)
		q := fmt.Sprintf("?mode=%s&bound=%g&precision=%s", modeNames[s.mode], s.bound, map[bool]string{false: "f32", true: "f64"}[s.f64])
		c := &serveInput{route: "compress", method: "POST", path: "/v1/compress" + q, raw: s.rawBytes()}
		dc := &serveInput{route: "decompress", method: "POST", path: "/v1/decompress", raw: s.rawBytes()}
		var err error
		if s.f64 {
			c.body = floatsBytes(f.v64)
			dc.body, err = framed64(f.v64, s.mode, s.bound)
			c.verify = func(b []byte) error {
				v, err := unframe[float64](pfpl.NewReader64(bytes.NewReader(b), pfpl.Options{}))
				if err != nil {
					return err
				}
				return checkBound(f.v64, v, s.mode, s.bound)
			}
			dc.verify = func(b []byte) error {
				v, err := bytesFloats[float64](b)
				if err != nil {
					return err
				}
				return checkBound(f.v64, v, s.mode, s.bound)
			}
			d.c64, d.d64 = append(d.c64, c), append(d.d64, dc)
		} else {
			c.body = floatsBytes(f.v32)
			dc.body, err = framed32(f.v32, s.mode, s.bound, false)
			c.verify = func(b []byte) error {
				v, err := unframe[float32](pfpl.NewReader32(bytes.NewReader(b), pfpl.Options{}))
				if err != nil {
					return err
				}
				return checkBound(f.v32, v, s.mode, s.bound)
			}
			dc.verify = func(b []byte) error {
				v, err := bytesFloats[float32](b)
				if err != nil {
					return err
				}
				return checkBound(f.v32, v, s.mode, s.bound)
			}
			d.c32, d.d32 = append(d.c32, c), append(d.d32, dc)
			put, err := framed32(f.v32, s.mode, s.bound, true)
			if err != nil {
				return nil, err
			}
			d.put = append(d.put, &serveInput{route: "put", method: "PUT", body: put, raw: s.rawBytes()})
		}
		if err != nil {
			return nil, err
		}
	}
	d.batchSet = &batchSet{mode: pfpl.ABS, bound: serveBatchBound}
	for i := 0; i < 64; i++ {
		f := newField(spec{daqShape(i), serveBatchValues, pfpl.ABS, serveBatchBound, false}, r)
		d.batchSet.fields = append(d.batchSet.fields, f.v32)
		d.fields = append(d.fields, f)
		d.batch = append(d.batch, &serveInput{
			route: "batch", method: "POST", path: fmt.Sprintf("/v1/batch?mode=abs&bound=%g", serveBatchBound),
			body: floatsBytes(f.v32), raw: f.rawBytes(),
			verify: func(b []byte) error {
				v, err := pfpl.Decompress32(b, nil, pfpl.Options{})
				if err != nil {
					return err
				}
				return checkBound(f.v32, v, pfpl.ABS, serveBatchBound)
			},
		})
	}
	for i := 0; i < 2; i++ {
		f := newField(spec{[]shape{smooth, lognormal}[i], serveObjValues, pfpl.ABS, 1e-2, false}, r)
		s, err := framed32(f.v32, pfpl.ABS, 1e-2, true)
		if err != nil {
			return nil, err
		}
		d.objects = append(d.objects, f.v32)
		d.objStreams = append(d.objStreams, s)
		d.fields = append(d.fields, f)
	}
	return d, nil
}

// server is one running `pfpl serve` child.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	start  time.Time
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer execs the daemon with default settings apart from address
// and -quiet, and waits for /healthz to answer 200.
func startServer(bin string, hc *http.Client) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr, start: time.Now()}
	s.cmd = exec.Command(bin, "serve", "-addr", addr, "-quiet")
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
	}
	s.stop()
	return nil, fmt.Errorf("pfpl serve did not become healthy: %s", s.stderr.String())
}

// stop sends SIGTERM, waits for the process to exit, and returns its peak
// RSS in MB and its CPU time.
func (s *server) stop() (rssMB float64, cpu time.Duration, err error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, 0, err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(40 * time.Second):
		s.cmd.Process.Kill()
		err = fmt.Errorf("pfpl serve did not drain: %w", <-done)
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return rssMB, cpu, err
}

func do(hc *http.Client, method, url string, body []byte, out *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	out.Reset()
	_, err = out.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

func (s *server) putObjects(hc *http.Client, d *serveData) error {
	var out bytes.Buffer
	for i, obj := range d.objStreams {
		code, err := do(hc, "PUT", fmt.Sprintf("%s/v1/objects/obj-%d", s.base, i), obj, &out)
		if err != nil {
			return err
		}
		if code/100 != 2 {
			return fmt.Errorf("PUT obj-%d: %d %s", i, code, out.String())
		}
	}
	return nil
}

func (s *server) scrape(hc *http.Client) (map[string]any, error) {
	var out bytes.Buffer
	code, err := do(hc, "GET", s.base+"/metrics", nil, &out)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %d", code)
	}
	m := map[string]any{}
	return m, json.Unmarshal(out.Bytes(), &m)
}

// counter reads a counter, or a histogram's field, from a /metrics scrape.
func counter(m map[string]any, name, field string) float64 {
	v, ok := m[name]
	if !ok {
		return 0
	}
	if field != "" {
		h, ok := v.(map[string]any)
		if !ok {
			return 0
		}
		v = h[field]
	}
	f, _ := v.(float64)
	return f
}

func delta(before, after map[string]any, name, field string) float64 {
	return counter(after, name, field) - counter(before, name, field)
}

// request is one scheduled request of the open loop.
type request struct {
	seq   int
	cycle int // pass over serveCycle; even passes are traced in the traced run
	kind  string
	in    *serveInput
	url   string
	due   time.Time
	start time.Time
	end   time.Time
	code  int
	err   error
	obj   int // range reads: object index and first value
	off   int
}

// rangeInput stands for every range read; their windows vary per request.
var rangeInput = &serveInput{route: "range", method: "GET"}

func (s *server) plan(d *serveData, seed uint64, t0 time.Time, seconds float64) []*request {
	r := newRNG(seed ^ 0x91a4)
	var reqs []*request
	slots := int(seconds * serveSlotsPerSec)
	counts := map[string]int{}
	for slot := 0; slot < slots; slot++ {
		kind := serveCycle[slot%len(serveCycle)]
		due := t0.Add(time.Duration(float64(slot) / serveSlotsPerSec * float64(time.Second)))
		n := 1
		if kind == "batch" {
			n = serveBurst
		}
		for k := 0; k < n; k++ {
			q := &request{seq: len(reqs), cycle: slot / len(serveCycle), kind: kind, due: due}
			i := counts[kind]
			counts[kind]++
			switch kind {
			case "c32":
				q.in = d.c32[i%len(d.c32)]
			case "c64":
				q.in = d.c64[i%len(d.c64)]
			case "d32":
				q.in = d.d32[i%len(d.d32)]
			case "d64":
				q.in = d.d64[i%len(d.d64)]
			case "batch":
				q.in = d.batch[int(r.next()%uint64(len(d.batch)))]
			case "put":
				q.in = d.put[i%len(d.put)]
				q.url = fmt.Sprintf("%s/v1/objects/put-%d", s.base, i%4)
			case "range":
				q.in = rangeInput
				q.obj = i % len(d.objects)
				q.off = int(r.next() % uint64(serveObjValues-serveRangeCount))
				q.url = fmt.Sprintf("%s/v1/objects/obj-%d?offset=%d&count=%d", s.base, q.obj, q.off, serveRangeCount)
			}
			if q.url == "" {
				q.url = s.base + q.in.path
			}
			reqs = append(reqs, q)
		}
	}
	return reqs
}

// check verifies one response: the first response to each distinct input
// is decoded and bound-checked and becomes the reference; every later one
// must equal it byte for byte. Range reads are bound-checked directly.
func (q *request) check(d *serveData, resp []byte) error {
	if q.err != nil {
		return q.err
	}
	if q.code/100 != 2 {
		return fmt.Errorf("status %d: %s", q.code, strings.TrimSpace(string(resp[:min(len(resp), 200)])))
	}
	switch q.kind {
	case "put":
		return nil
	case "range":
		v, err := bytesFloats[float32](resp)
		if err != nil {
			return err
		}
		o := d.objects[q.obj][q.off : q.off+serveRangeCount]
		return checkBound(o, v, pfpl.ABS, 1e-2)
	}
	if !bytes.Equal(resp, q.in.want) {
		return fmt.Errorf("response differs from the verified reference response")
	}
	return nil
}

// warm sends each distinct input once, verifies the response against the
// bound and records it as the reference.
func (s *server) warm(hc *http.Client, d *serveData) error {
	var out bytes.Buffer
	for _, group := range [][]*serveInput{d.c32, d.c64, d.d32, d.d64, d.batch} {
		for _, in := range group {
			code, err := do(hc, in.method, s.base+in.path, in.body, &out)
			if err != nil {
				return err
			}
			if code != http.StatusOK {
				return fmt.Errorf("%s %s: status %d: %s", in.method, in.path, code, out.String())
			}
			if err := in.verify(out.Bytes()); err != nil {
				return fmt.Errorf("%s %s: %w", in.method, in.path, err)
			}
			in.want = append([]byte(nil), out.Bytes()...)
			if in.route == "compress" || in.route == "batch" {
				d.ratioRaw += in.raw
				d.ratioComp += len(in.want)
			}
		}
	}
	return nil
}

func newClient() *http.Client {
	conns := runtime.NumCPU()
	return &http.Client{
		Timeout: serveMaxWait,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func runServe(cfg *config, rep *report) error {
	if cfg.pfplBin == "" {
		return fmt.Errorf("serve-mixed needs -pfpl, the path of a built cmd/pfpl binary")
	}
	d, err := newServeData(cfg.seed)
	if err != nil {
		return err
	}
	if cfg.trace {
		// Library probes run before the daemon starts, so they compete
		// with nothing.
		if err := probeLayers(rep, d.fields, d.batchSet, cfg.seed); err != nil {
			return err
		}
	}
	hc := newClient()
	defer hc.CloseIdleConnections()

	var setups []float64
	var srv *server
	for i := 0; i < serveSetups; i++ {
		t0 := time.Now()
		s, err := startServer(cfg.pfplBin, hc)
		if err != nil {
			return err
		}
		if err := s.putObjects(hc, d); err != nil {
			s.stop()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < serveSetups-1 {
			hc.CloseIdleConnections()
			if _, _, err := s.stop(); err != nil {
				return err
			}
			continue
		}
		srv = s
	}
	fmt.Printf("setup: %d server starts, seconds %v\n", serveSetups, setups)
	if !cfg.trace {
		rep.set("setup_s", median(setups), serveSetups)
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	if err := srv.warm(hc, d); err != nil {
		return err
	}
	before, err := srv.scrape(hc)
	if err != nil {
		return err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	t0 := time.Now().Add(50 * time.Millisecond)
	reqs := srv.plan(d, cfg.seed, t0, cfg.seconds)
	cpu := startCPU()
	runOpenLoop(hc, d, reqs, rep, tr)
	wall := time.Since(t0)
	clientCPU := cpu.share()
	after, err := srv.scrape(hc)
	if err != nil {
		return err
	}
	hc.CloseIdleConnections()
	rss, srvCPU, err := srv.stop()
	stopped = true
	if err != nil {
		return err
	}
	srvShare := srvCPU.Seconds() / time.Since(srv.start).Seconds() / float64(runtime.NumCPU())

	var lat, late []float64
	route := map[string][]float64{}
	var enc, dec [2]throughput
	var ot opTimer
	for _, q := range reqs {
		ms := math.Inf(1) // a failed request misses every latency limit
		if q.err == nil && q.code/100 == 2 {
			ms = float64(q.end.Sub(q.due)) / 1e6
		}
		lat = append(lat, ms)
		late = append(late, float64(q.start.Sub(q.due))/1e6)
		route[q.in.route] = append(route[q.in.route], ms)
		p := 0
		if strings.HasSuffix(q.kind, "64") {
			p = 1
		}
		if math.IsInf(ms, 0) {
			continue
		}
		ot.add(q.cycle%2 == 0, q.end.Sub(q.due))
		switch q.in.route {
		case "compress":
			enc[p].add(q.in, q.in.raw, q.end.Sub(q.due))
		case "decompress":
			dec[p].add(q.in, q.in.raw, q.end.Sub(q.due))
		}
	}
	fmt.Printf("loadgen: %d requests in %.1f s (%.1f req/s), late p99 %.3f ms max %.3f ms, client CPU %.1f%%, server CPU %.1f%% of %d CPUs\n",
		len(reqs), wall.Seconds(), float64(len(reqs))/wall.Seconds(), percentile(late, 99), percentile(late, 100),
		100*clientCPU, 100*srvShare, runtime.NumCPU())

	if tr != nil {
		tr.budget(rep)
		ot.report(rep)
		for _, r := range serveRoutes {
			rep.set("server."+r+"_p50_ms", median(route[r]), len(route[r]))
		}
		var hSum, cSum float64
		for _, r := range []string{"compress", "decompress", "batch"} {
			hSum += delta(before, after, "latency_ns."+r, "sum") / 1e6
			for _, ms := range route[r] {
				cSum += ms
			}
		}
		rep.set("server.handler_share", hSum/cSum, len(reqs))
		rep.set("server.slot_wait_ms_mean", delta(before, after, "latency_ns.slot_wait", "sum")/1e6/math.Max(1, delta(before, after, "latency_ns.slot_wait", "count")), int(delta(before, after, "latency_ns.slot_wait", "count")))
		rep.set("server.batch_fields_mean", delta(before, after, "batch.coalesced_fields", "sum")/math.Max(1, delta(before, after, "batch.coalesced_fields", "count")), int(delta(before, after, "batch.coalesced_fields", "count")))
		var sat float64
		for k := range after {
			if strings.HasPrefix(k, "requests.") && strings.HasSuffix(k, ".saturated") {
				sat += delta(before, after, k, "")
			}
		}
		rep.set("server.rejected_share", sat/float64(len(reqs)), len(reqs))
		rep.set("server.audit_bound_fail", delta(before, after, "audit.bound.fail", ""), int(delta(before, after, "audit.bound.pass", "")+delta(before, after, "audit.bound.fail", "")))
		hit, miss := delta(before, after, "cache.frames.hit", ""), delta(before, after, "cache.frames.miss", "")
		rep.set("server.cache_hit_ratio", hit/math.Max(1, hit+miss), int(hit+miss))
		rep.set("server.chunks_decoded_per_range", delta(before, after, "objects.chunks_decoded", "")/math.Max(1, float64(len(route["range"]))), len(route["range"]))
		raw, comp := delta(before, after, "chunks.raw", ""), delta(before, after, "chunks.compressed", "")
		rep.set("server.raw_chunk_share", raw/math.Max(1, raw+comp), int(raw+comp))
		rep.set("loadgen.late_ms_p99", percentile(late, 99), len(late))
		rep.set("loadgen.late_ms_max", percentile(late, 100), len(late))
		rep.set("loadgen.cpu_share", clientCPU, 1)
		return tr.write(cfg.traceOut)
	}
	reportEndToEnd(rep, &enc, &dec, float64(d.ratioRaw)/float64(d.ratioComp), len(d.c32)+len(d.c64)+len(d.batch), lat, serveTailPct, rss)
	return nil
}

// runOpenLoop sends every request at its due time from a pool of client
// goroutines, whatever the state of earlier requests, and checks each
// response after its timing ends.
func runOpenLoop(hc *http.Client, d *serveData, reqs []*request, rep *report, tr *tracer) {
	// Sized to every request, so the generator never blocks on a send.
	jobs := make(chan *request, len(reqs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < serveWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out bytes.Buffer
			for q := range jobs {
				q.start = time.Now()
				q.code, q.err = do(hc, q.in.method, q.url, q.in.body, &out)
				q.end = time.Now()
				err := q.check(d, out.Bytes())
				if tr != nil && q.cycle%2 == 0 {
					id := tr.add(q.in.route, "op", -1, int64(q.seq), q.due, q.end)
					tr.add("loadgen.late", "loadgen", id, int64(q.seq), q.due, q.start)
					tr.add("http."+q.in.route, "http", id, int64(q.seq), q.start, q.end)
				}
				mu.Lock()
				rep.check(fmt.Sprintf("request %d %s %s", q.seq, q.in.method, q.url), err)
				mu.Unlock()
			}
		}()
	}
	for _, q := range reqs {
		time.Sleep(time.Until(q.due))
		jobs <- q
	}
	close(jobs)
	wg.Wait()
}
