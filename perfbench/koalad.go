package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// The koalad workload is an open-loop stream of independent users
// hitting an in-process koalad over loopback HTTP. koalad runs with a
// durable store in a temporary directory, as -data-dir deploys do. The
// request mix:
//
//   - hot: re-POST of one of the configs pre-warmed during setup, then
//     replay of its event stream (a cache read);
//   - cold: a config no one submitted before (admit, queue, simulate,
//     store write, NDJSON stream to the terminal summary);
//   - follower: for every fourth cold config, a re-POST just after it was
//     submitted, while it is still running, then its event stream
//     (coalescing and NDJSON fan-out).
//
// Requests are due on a schedule derived from --seed and are sent by
// nproc workers, each with one connection; a request's latencies run from
// its due time, so a stall delays every request due behind it.

// Open-loop rates and config shape.
const (
	hotPerSec  = 100.0
	coldPerSec = 30.0
	// followerEvery gives every followerEvery-th cold config a follower.
	followerEvery = 4
	// followerLag is how long after its cold config a follower is due.
	followerLag = time.Millisecond
	hotConfigs  = 32
	// crossCheckEvery picks the cold results re-simulated locally.
	crossCheckEvery = 16
)

type opClass int

const (
	hot opClass = iota
	cold
	follower
)

func (c opClass) String() string { return [...]string{"hot", "cold", "follower"}[c] }

// op is one scheduled request.
type op struct {
	class opClass
	due   time.Duration // offset from the start of the window
	body  []byte
	// coldID numbers the cold configs; a follower carries its cold op's.
	coldID int
	// pair is, for a follower, the index of its cold op.
	pair int
	// hotKey is, for a hot op, the index of its pre-warmed config.
	hotKey int
}

// configBody renders a small koalad config, so that serving it costs
// about as much as simulating it: 40 jobs, two replications on one
// simulation worker.
func configBody(name string, seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"name":%q,"workload":{"name":"kb","jobs":40,"inter_arrival":60,`+
		`"malleable_fraction":0.5,"initial_size":2,"rigid_size":2},"runs":2,"parallelism":1,"seed":%d}`, name, seed))
}

// hotBody is the k-th pre-warmed config of a workload seed.
func hotBody(seed uint64, k int) []byte {
	return configBody(fmt.Sprintf("hot-%d", k), configSeed(seed, 1, k))
}

// configSeed derives distinct simulation seeds from the workload seed:
// tag separates hot from cold configs. The result stays below 2^53.
func configSeed(seed uint64, tag, i int) uint64 {
	return (seed%(1<<28))<<24 | uint64(tag)<<22 | uint64(i)
}

// buildSchedule is the request schedule of a run: Poisson arrivals over
// seconds, each hot or cold by the rates above, and a follower for every
// followerEvery-th cold request. It is a pure function of its arguments.
func buildSchedule(seed uint64, seconds int) []op {
	r := rand.New(rand.NewPCG(seed, 0x6b6f616c61))
	rate := hotPerSec + coldPerSec
	horizon := float64(seconds)
	var ops []op
	colds := 0
	for t := r.ExpFloat64() / rate; t < horizon; t += r.ExpFloat64() / rate {
		due := time.Duration(t * float64(time.Second))
		if r.Float64() < hotPerSec/rate {
			k := r.IntN(hotConfigs)
			ops = append(ops, op{class: hot, due: due, body: hotBody(seed, k), hotKey: k})
			continue
		}
		body := configBody(fmt.Sprintf("cold-%d", colds), configSeed(seed, 2, colds))
		ops = append(ops, op{class: cold, due: due, body: body, coldID: colds})
		if colds%followerEvery == 0 {
			ops = append(ops, op{class: follower, due: due + followerLag, body: body, coldID: colds})
		}
		colds++
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	pos := make([]int, colds)
	for i, o := range ops {
		if o.class == cold {
			pos[o.coldID] = i
		}
	}
	for i := range ops {
		if ops[i].class == follower {
			ops[i].pair = pos[ops[i].coldID]
		}
	}
	return ops
}

// opResult is what one request observed; times are offsets from the
// start of the window.
type opResult struct {
	sent, submitted, first, terminal time.Duration
	status                           int
	id                               string
	cached, coalesced                bool
	summary                          []byte
	err                              error
}

// latency is a request's wait from its due time.
func latency(due, at time.Duration) float64 { return ms(at - due) }

// runOpenLoop sends ops on schedule and returns once every op finished.
// A dispatcher hands each op, at its due time, to one of workers
// goroutines; when all are busy the op waits and is late. do performs one
// op; start is the window start, and do calls posted once the op's POST
// was answered. A follower is sent only after its cold op's POST was
// answered. late holds each op's send delay past its due time.
func runOpenLoop(ops []op, workers int, do func(o op, start time.Time, posted func()) opResult) (res []opResult, late []float64) {
	res = make([]opResult, len(ops))
	posted := make([]chan struct{}, len(ops))
	for i, o := range ops {
		if o.class == cold {
			posted[i] = make(chan struct{})
		}
	}
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				o := ops[i]
				if o.class == follower {
					<-posted[o.pair]
				}
				var once sync.Once
				signal := func() {
					if posted[i] != nil {
						once.Do(func() { close(posted[i]) })
					}
				}
				res[i] = do(o, start, signal)
				signal()
			}
		}()
	}
	for i, o := range ops {
		waitUntil(start.Add(o.due))
		work <- i
	}
	close(work)
	wg.Wait()
	late = make([]float64, len(ops))
	for i, o := range ops {
		late[i] = latency(o.due, res[i].sent)
	}
	return res, late
}

// spinWindow is how long before a due time the generator stops sleeping
// and polls the clock: a timer sleep on Linux wakes up to about a
// millisecond late, which would otherwise count in every latency.
const spinWindow = 1500 * time.Microsecond

// waitUntil returns at t: it sleeps until spinWindow before t, then
// yields until t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// daemon is an in-process koalad with a durable store, served over
// loopback HTTP.
type daemon struct {
	srv    *server.Server
	st     *store.Store
	hs     *http.Server
	dir    string
	base   string
	client *http.Client
	served chan struct{}
}

// startDaemon starts koalad on a fresh store in dir. Its client opens at
// most conns connections.
func startDaemon(dir string, conns int) (*daemon, error) {
	reg := obs.NewRegistry()
	st, err := store.Open(dir, store.Options{Metrics: reg})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Options{Parallelism: 1, MaxRetained: 1 << 16, Store: st, Metrics: reg})
	if _, err := srv.Recover(); err != nil {
		st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	d := &daemon{
		srv: srv, st: st, dir: dir,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
	}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return d, nil
}

// close drains koalad, stops serving and removes the store.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	d.client.CloseIdleConnections()
	err = errors.Join(err, d.hs.Shutdown(ctx))
	<-d.served
	err = errors.Join(err, d.st.Close())
	return errors.Join(err, os.RemoveAll(d.dir))
}

// submitResp is the part of koalad's POST response the benchmark reads.
type submitResp struct {
	ID        string `json:"id"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced"`
}

// request POSTs body, calls posted (when non-nil) once koalad answered,
// and follows the run's event stream to its terminal event. Times in res
// are relative to start.
func (d *daemon) request(body []byte, start time.Time, posted func()) opResult {
	res := d.submit(body, start)
	if posted != nil {
		posted()
	}
	if res.err == nil {
		res.summary, res.err = d.follow(start, &res)
	}
	return res
}

// submit POSTs body to koalad.
func (d *daemon) submit(body []byte, start time.Time) (res opResult) {
	res.sent = time.Since(start)
	resp, err := d.client.Post(d.base+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.submitted = time.Since(start)
	res.status = resp.StatusCode
	if err != nil {
		res.err = err
		return res
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		res.err = fmt.Errorf("POST: %d %s", resp.StatusCode, bytes.TrimSpace(b))
		return res
	}
	var sr submitResp
	if err := json.Unmarshal(b, &sr); err != nil {
		res.err = fmt.Errorf("POST response: %w", err)
		return res
	}
	res.id, res.cached, res.coalesced = sr.ID, sr.Cached, sr.Coalesced
	return res
}

// follow reads run res.id's NDJSON event stream until its terminal
// event, records the first and terminal event times in res and returns
// the raw summary.
func (d *daemon) follow(start time.Time, res *opResult) ([]byte, error) {
	id := res.id
	resp, err := d.client.Get(d.base + "/v1/experiments/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	for n := 0; ; n++ {
		line, err := rd.ReadBytes('\n')
		if len(line) > 0 && n == 0 {
			res.first = time.Since(start)
		}
		if len(line) > 0 {
			var ev struct {
				Type    string          `json:"type"`
				Error   string          `json:"error"`
				Summary json.RawMessage `json:"summary"`
			}
			if err := json.Unmarshal(line, &ev); err != nil {
				return nil, fmt.Errorf("event %d: %w", n, err)
			}
			switch ev.Type {
			case "summary":
				res.terminal = time.Since(start)
				return ev.Summary, nil
			case "error":
				return nil, fmt.Errorf("run %s failed: %s", id, ev.Error)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("stream of %s ended without a summary event: %w", id, err)
		}
	}
}

// runDoc is the part of GET /v1/experiments/{id} the benchmark reads.
type runDoc struct {
	Timings *struct {
		QueuedSeconds float64 `json:"queued_seconds"`
		RunSeconds    float64 `json:"run_seconds"`
	} `json:"timings"`
}

func (d *daemon) timings(id string) (queued, run float64, err error) {
	resp, err := d.client.Get(d.base + "/v1/experiments/" + id)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var doc runDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, 0, err
	}
	if doc.Timings == nil {
		return 0, 0, fmt.Errorf("run %s has no timings", id)
	}
	return doc.Timings.QueuedSeconds, doc.Timings.RunSeconds, nil
}

// scrape reads /metrics into name -> value, keeping histogram bucket
// labels in the name (name{le="0.1"}).
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// histQuantile estimates the q-quantile of the observations a histogram
// family gained between two scrapes, interpolating linearly inside the
// bucket as Prometheus' histogram_quantile does. It returns 0 when the
// histogram gained no observations.
func histQuantile(before, after map[string]float64, family string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := family + `_bucket{le="`
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`)
		bound := math.Inf(1)
		if le != "+Inf" {
			var err error
			if bound, err = strconv.ParseFloat(le, 64); err != nil {
				continue
			}
		}
		bs = append(bs, bucket{bound, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].n
	lower, below := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lower
			}
			return lower + (b.le-lower)*(rank-below)/(b.n-below)
		}
		lower, below = b.le, b.n
	}
	return lower
}

// koaladSetup starts koalad, pre-warms the hot configs and warms up
// with one cached read of each; it returns the daemon and each hot
// config's summary.
func koaladSetup(o opts, conns int) (*daemon, [][]byte, error) {
	dir, err := os.MkdirTemp(scratchDir, "koalad-store-")
	if err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(dir, conns)
	if err != nil {
		return nil, nil, err
	}
	warm := make([][]byte, hotConfigs)
	for pass := 0; pass < 2; pass++ {
		for k := range warm {
			res := d.request(hotBody(o.seed, k), time.Now(), nil)
			if res.err == nil && pass == 1 && !bytes.Equal(res.summary, warm[k]) {
				res.err = fmt.Errorf("pre-warmed config %d: cached summary differs from the cold one", k)
			}
			if res.err != nil {
				return nil, nil, errors.Join(res.err, d.close())
			}
			warm[k] = res.summary
		}
	}
	return d, warm, nil
}

// localSummary runs a config body in this process on the streaming path
// koalad uses and returns its encoded summary.
func localSummary(body []byte) ([]byte, error) {
	spec, err := experiment.DecodeConfigSpec(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	res, err := experiment.RunStreamContext(context.Background(), cfg, experiment.StreamHooks{})
	if err != nil {
		return nil, err
	}
	return experiment.EncodeSummary(res.Summary())
}

// checkOps verifies every op's outcome and counts attempts and failures.
func checkOps(ops []op, res []opResult, warm [][]byte, rep *report) (throttled int) {
	for i, o := range ops {
		r := res[i]
		rep.attempted++
		switch {
		case r.status == http.StatusTooManyRequests:
			throttled++
			rep.failed++
		case r.err != nil:
			rep.problem("%s op %d: %v", o.class, i, r.err)
		case o.class == hot && (!r.cached || !bytes.Equal(r.summary, warm[o.hotKey])):
			rep.problem("hot op %d: cached=%v, summary identical to the pre-warm run: %v", i, r.cached, bytes.Equal(r.summary, warm[o.hotKey]))
		case o.class == cold && (r.cached || r.coalesced):
			rep.problem("cold op %d was answered from the cache", i)
		case o.class == follower && !(r.cached || r.coalesced):
			rep.problem("follower op %d started a new run", i)
		case o.class == follower && res[o.pair].err == nil && !bytes.Equal(r.summary, res[o.pair].summary):
			rep.problem("follower op %d: summary differs from its cold run's", i)
		}
	}
	return throttled
}

// sampledColds returns the indices of every crossCheckEvery-th cold op
// that succeeded.
func sampledColds(ops []op, res []opResult) []int {
	var out []int
	for i, o := range ops {
		if o.class == cold && o.coldID%crossCheckEvery == 0 && res[i].err == nil {
			out = append(out, i)
		}
	}
	return out
}

// crossCheck re-simulates a sample of cold configs locally and compares
// the encoded summaries byte for byte with koalad's.
func crossCheck(ops []op, res []opResult, rep *report) error {
	for _, i := range sampledColds(ops, res) {
		local, err := localSummary(ops[i].body)
		if err != nil {
			return err
		}
		rep.attempted++
		if !bytes.Equal(local, res[i].summary) {
			rep.problem("cold op %d: koalad summary differs from a local run", i)
		}
	}
	return nil
}

// koaladWindow is one measured open-loop window.
type koaladWindow struct {
	ops                     []op
	res                     []opResult
	late                    []float64
	seconds                 float64
	before, after           map[string]float64
	allocBytes              float64
	queuedMs, runMs, decode []float64
}

func measureKoalad(d *daemon, ops []op, conns int) (koaladWindow, error) {
	w := koaladWindow{ops: ops}
	var err error
	if w.before, err = d.scrape(); err != nil {
		return w, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	w.res, w.late = runOpenLoop(ops, conns, func(o op, start time.Time, posted func()) opResult {
		return d.request(o.body, start, posted)
	})
	w.seconds = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	w.allocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	if w.after, err = d.scrape(); err != nil {
		return w, err
	}
	for i, o := range ops {
		if o.class != cold || w.res[i].err != nil {
			continue
		}
		q, r, err := d.timings(w.res[i].id)
		if err != nil {
			return w, err
		}
		w.queuedMs = append(w.queuedMs, q*1e3)
		w.runMs = append(w.runMs, r*1e3)
	}
	return w, nil
}

func (w koaladWindow) delta(name string) float64 { return w.after[name] - w.before[name] }

func runKoalad(o opts) (*report, error) {
	rep := newReport()
	conns := runtime.NumCPU()
	var setups []float64
	var d *daemon
	var warm [][]byte
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		var err error
		if d, warm, err = koaladSetup(o, conns); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	ops := buildSchedule(o.seed, o.seconds)
	w, err := measureKoalad(d, ops, conns)
	if err != nil {
		return nil, errors.Join(err, d.close())
	}
	if err := d.close(); err != nil {
		return nil, err
	}
	throttled := checkOps(ops, w.res, warm, rep)
	if err := crossCheck(ops, w.res, rep); err != nil {
		return nil, err
	}
	reps := w.delta("koalad_replications_total")
	if o.trace {
		return rep, traceKoalad(o, w, throttled, rep)
	}
	var submit, first, terminal []float64
	for i, op := range ops {
		r := w.res[i]
		if r.err != nil {
			continue
		}
		submit = append(submit, latency(op.due, r.submitted))
		first = append(first, latency(op.due, r.first))
		if op.class == cold {
			terminal = append(terminal, latency(op.due, r.terminal))
		}
	}
	rep.set("setup_s", median(setups))
	rep.set("reps_per_s", reps/w.seconds)
	rep.set("point_ms_p50", percentile(w.runMs, 50))
	rep.set("point_ms_p90", percentile(w.runMs, 90))
	rep.set("alloc_mb_per_rep", w.allocBytes/1e6/reps)
	rep.set("submit_ms_p50", percentile(submit, 50))
	rep.set("submit_ms_p99", percentile(submit, 99))
	rep.set("first_event_ms_p50", percentile(first, 50))
	rep.set("terminal_ms_p50", percentile(terminal, 50))
	rep.set("terminal_ms_p99", percentile(terminal, 99))
	return rep, nil
}

// setServerMetrics reports the server and store layers of a window.
func setServerMetrics(rep *report, w koaladWindow, throttled int) {
	hits, misses, coal := w.delta("koalad_cache_hits_total"), w.delta("koalad_cache_misses_total"), w.delta("koalad_cache_coalesced_total")
	rep.set("server.cache_hit_ratio", hits/(hits+misses+coal))
	rep.set("server.coalesced", coal)
	rep.set("server.queue_wait_ms_p99", percentile(w.queuedMs, 99))
	rep.set("server.run_ms_p50", percentile(w.runMs, 50))
	rep.set("server.follower_stall_ms_p99", 1e3*histQuantile(w.before, w.after, "koalad_follower_write_stall_seconds", 0.99))
	rep.set("server.throttled", float64(throttled))
	rep.set("store.write_ms_p50", 1e3*histQuantile(w.before, w.after, "koalad_store_write_seconds", 0.5))
	rep.set("server.decode_us", decodeMicros(w.ops))
}

// decodeMicros times experiment.DecodeConfigSpec over the window's
// request bodies and returns the median microseconds per decode.
func decodeMicros(ops []op) float64 {
	const passes = 20
	per := make([]float64, 0, passes)
	for p := 0; p < passes; p++ {
		t := time.Now()
		for _, o := range ops {
			if _, err := experiment.DecodeConfigSpec(bytes.NewReader(o.body)); err != nil {
				panic(err) // the bodies are generated here; a bug alone gets here
			}
		}
		per = append(per, float64(time.Since(t))/float64(time.Microsecond)/float64(len(ops)))
	}
	return median(per)
}

// traceKoalad reports the per-layer metrics of the koalad workload: the
// server layers from the window, and the simulation layers from a local
// replay of a sample of the cold configs, untraced and traced.
func traceKoalad(o opts, w koaladWindow, throttled int, rep *report) error {
	setServerMetrics(rep, w, throttled)
	rep.set("bench.gen_late_ms_p99", percentile(w.late, 99))

	var cfgs []experiment.Config
	for _, i := range sampledColds(w.ops, w.res) {
		spec, err := experiment.DecodeConfigSpec(bytes.NewReader(w.ops[i].body))
		if err != nil {
			return err
		}
		cfg, err := spec.Config()
		if err != nil {
			return err
		}
		cfgs = append(cfgs, cfg)
	}
	replay := simWorkload{name: "koalad", configs: func() []experiment.Config { return cfgs }, roundsPer10s: 20}
	preps, _, prepare, wlPrepare, err := setupSim(replay)
	if err != nil {
		return err
	}
	rounds := replay.rounds(o.seconds)
	_, t, err := traceReplications(preps, rounds, max(2, rounds/2), rep, nil)
	if err != nil {
		return err
	}
	rep.set("workload.prepare_ms", wlPrepare)
	rep.set("experiment.prepare_ms", prepare)
	rep.set("bench.failed_frac", failedFrac(rep))
	return t.writeSpans(o.spans)
}

// probeServer serves a sim workload's points once through koalad, for
// the server and store layers of the traced run: each point is POSTed
// cold, re-POSTed while it runs and again once it is done; every summary
// must match the cold one and a local run of the point.
func probeServer(preps []*experiment.Prepared, rep *report) error {
	dir, err := os.MkdirTemp(scratchDir, "koalad-store-")
	if err != nil {
		return err
	}
	d, err := startDaemon(dir, 1)
	if err != nil {
		return err
	}
	w := koaladWindow{}
	if w.before, err = d.scrape(); err != nil {
		return errors.Join(err, d.close())
	}
	throttled := 0
	start := time.Now()
	for _, p := range preps {
		spec, err := experiment.SpecFromConfig(p.Config())
		if err != nil {
			return errors.Join(err, d.close())
		}
		spec.Parallelism = 1
		body, err := json.Marshal(spec)
		if err != nil {
			return errors.Join(err, d.close())
		}
		w.ops = append(w.ops, op{class: cold, body: body})
		local, err := localSummary(body)
		if err != nil {
			return errors.Join(err, d.close())
		}
		cold := d.submit(body, start)
		if cold.status == http.StatusTooManyRequests {
			throttled++
		}
		again := d.request(body, start, nil) // while the run is live: coalesces
		if cold.err == nil {
			cold.summary, cold.err = d.follow(start, &cold)
		}
		last := d.request(body, start, nil) // after it finished: a cache hit
		for _, r := range []opResult{cold, again, last} {
			rep.attempted++
			switch {
			case r.err != nil:
				rep.problem("%s: %v", p.Config().Name, r.err)
			case !bytes.Equal(r.summary, local):
				rep.problem("%s: koalad summary differs from a local run", p.Config().Name)
			}
		}
		if cold.err != nil {
			continue
		}
		q, run, err := d.timings(cold.id)
		if err != nil {
			return errors.Join(err, d.close())
		}
		w.queuedMs = append(w.queuedMs, q*1e3)
		w.runMs = append(w.runMs, run*1e3)
	}
	if w.after, err = d.scrape(); err != nil {
		return errors.Join(err, d.close())
	}
	if err := d.close(); err != nil {
		return err
	}
	setServerMetrics(rep, w, throttled)
	return nil
}
