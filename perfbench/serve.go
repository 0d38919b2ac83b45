package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"northstar/internal/experiments"
	"northstar/internal/obs"
	"northstar/internal/serve"
	"northstar/internal/sim"
)

// serve_churn's traffic. The open-loop stretches offer a fixed share of
// the capacity the closed-loop stretch before them measured, so the
// server runs at the same utilization on a fast host and a slow one:
// at a fixed rate, a host slowed by steal from its neighbours pushed the
// server toward saturation, and queueing behind heavy requests blew the
// latency up by several times what the slowdown alone explained. The
// cache budget holds a few dozen quick-mode bodies, far below the
// thousand-odd distinct keys a window sends, so inserts evict.
const (
	churnLoad       = 0.3 // offered requests per second over measured capacity
	churnCacheBytes = 48 << 10
	churnLimit      = 250 * time.Millisecond // latency limit on the open-loop tail percentile
)

// call is one request of a traffic mix.
type call struct {
	req   serve.Request
	body  []byte // req as JSON
	check bool   // compare against a direct interpretation
}

func newCall(req serve.Request) call {
	req.Quick = true
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a Request of plain values always encodes
	}
	return call{req: req, body: body}
}

// outcome is what the client saw for one request.
type outcome struct {
	err    error
	status int
	cache  string // CacheHeader: hit, miss or collapsed
	key    string // KeyHeader
	body   []byte
}

// serveBench is an in-process scenario service on a loopback TCP
// listener and the HTTP client that loads it.
type serveBench struct {
	conns     int
	srv       *serve.Server
	hs        *http.Server
	served    chan struct{} // closed when hs.Serve returns
	closeOnce sync.Once
	transport *http.Transport
	client    *http.Client
	url       string

	warm        []call
	setupFailed int
	churn       *churnGen
}

// newServe starts the server and client, warms the cache with every
// registered scenario in quick mode and checks each warm response
// against the golden corpus.
func newServe(root string, seed int64) (*serveBench, error) {
	width := runtime.NumCPU()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &serveBench{
		conns:  width,
		srv:    serve.New(serve.Config{CacheBytes: churnCacheBytes, PoolWorkers: width}),
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		transport: &http.Transport{
			MaxConnsPerHost:     width,
			MaxIdleConnsPerHost: width,
			DisableCompression:  true,
		},
	}
	b.hs = &http.Server{Handler: b.srv.Handler()}
	b.client = &http.Client{Transport: b.transport}
	go func() {
		defer close(b.served)
		b.hs.Serve(ln)
	}()

	for _, sc := range experiments.Scenarios() {
		b.warm = append(b.warm, newCall(serve.Request{ID: sc.ID}))
	}
	b.churn = &churnGen{rng: rand.New(rand.NewSource(seed)), nextSeed: 2_000_000 + 10_000*(seed%100_000), variant: make(map[string]int)}
	for _, c := range b.warm {
		if err := b.checkWarm(root, c, b.do(c)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: warm-up %s: %v\n", c.body, err)
			b.setupFailed++
		}
	}
	return b, nil
}

func (b *serveBench) checkWarm(root string, c call, out outcome) error {
	if out.err != nil {
		return out.err
	}
	if out.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", out.status, out.body)
	}
	var r serve.Response
	if err := json.Unmarshal(out.body, &r); err != nil {
		return err
	}
	golden, err := os.ReadFile(filepath.Join(root, "internal", "experiments", "testdata", "golden", c.req.ID+".table"))
	if err != nil {
		return err
	}
	if r.ID != c.req.ID || !r.Quick || r.Table != string(golden) {
		return errors.New("served table differs from the golden corpus")
	}
	return nil
}

// checkDirect interprets the request's spec in-process, without the
// service, and compares table and cache key with the served body.
func checkDirect(req serve.Request, body []byte) error {
	var r serve.Response
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	base := req.Spec
	if req.ID != "" {
		sc, err := experiments.ScenarioByID(req.ID)
		if err != nil {
			return err
		}
		base = sc
	}
	spec := base.WithOverrides(req.Params, req.Seed)
	t, err := spec.Run(true)
	if err != nil {
		return err
	}
	key, err := spec.Fingerprint(true)
	if err != nil {
		return err
	}
	if r.Table != t.String() || r.Key != key {
		return errors.New("served body differs from a direct interpretation")
	}
	return nil
}

func (b *serveBench) do(c call) outcome {
	resp, err := b.client.Post(b.url+"/v1/scenario", "application/json", bytes.NewReader(c.body))
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return outcome{
		err:    err,
		status: resp.StatusCode,
		cache:  resp.Header.Get(serve.CacheHeader),
		key:    resp.Header.Get(serve.KeyHeader),
		body:   body,
	}
}

func (b *serveBench) setupOps() (attempted, failed int) { return len(b.warm), b.setupFailed }

// A serve_churn window is a run of rounds. Each round sends closedBlocks
// churn blocks closed loop, every connection sending its next request as
// soon as its last one completes, so the server's speed sets the rate
// rather than a schedule: the throughput and latency samples. Then it
// sends openBlocks more open loop at churnLoad of the throughput just
// measured: the sample of latency from due time. In untraced windows
// calibration slices precede each stretch. The number of rounds follows
// from the window's length alone, never from how fast they ran, so
// every run of one length has the same sample sizes and reports its
// tails at the same percentiles.
const (
	closedBlocks = 8 // 288 requests: about 1.7 s on the reference host
	openBlocks   = 4 // 144 requests: about 2.8 s at churnLoad
	roundSeconds = 6 // nominal length of a round, calibration included
)

// stretch is the record of one open- or closed-loop stretch.
type stretch struct {
	calls   []call
	load    loadResult
	replies []reply
	cost    delta
}

// elapsed is the seconds from the start of the stretch to its last
// completion.
func (st stretch) elapsed() float64 {
	last := time.Duration(0)
	for _, d := range st.load.done {
		last = max(last, d)
	}
	return last.Seconds()
}

// blockRates is, for each churn block of a closed-loop stretch, its
// requests over the seconds from when a connection took its first
// request to when one took the next block's first (the stretch's last
// completion, for the last block).
func (st stretch) blockRates() []float64 {
	var rates []float64
	for first := 0; first < len(st.calls); first += churnBlockRequests {
		next := min(first+churnBlockRequests, len(st.calls))
		end := st.elapsed()
		if next < len(st.calls) {
			end = st.load.claimed[next].Seconds()
		}
		rates = append(rates, float64(next-first)/(end-st.load.claimed[first].Seconds()))
	}
	return rates
}

// send issues calls on the due schedule over every connection and
// judges each response as it arrives.
func (b *serveBench) send(calls []call, due []time.Duration, first *keyBodies) stretch {
	st := stretch{calls: calls, replies: make([]reply, len(calls))}
	u0 := readUsage()
	st.load = openLoop(due, b.conns, func(i int) { st.replies[i] = b.judge(calls[i], b.do(calls[i]), first) })
	st.cost = readUsage().since(u0)
	return st
}

// window runs rounds for about seconds, at least one, and checks every
// response. A traced window attaches a KernelProbe to every kernel the
// service builds while it runs.
func (b *serveBench) window(seconds float64, traced bool) windowStats {
	first := &keyBodies{m: make(map[string][]byte)}
	var events func() uint64
	if traced {
		events = probeKernels()
	}
	var w windowStats
	var open, closed []stretch
	var offered []float64 // open-loop requests per second, per round
	v0 := b.varz()
	for r := max(1, int(math.Round(seconds/roundSeconds))); r > 0; r-- {
		if !traced {
			w.calib = calibrateInto(w.calib, b.conns)
		}
		calls, _ := b.churn.next(closedBlocks * len(churnBlock))
		cl := b.send(calls, make([]time.Duration, len(calls)), first)
		closed = append(closed, cl)
		if !traced {
			w.calib = calibrateInto(w.calib, b.conns)
		}
		rate := churnLoad * float64(len(cl.calls)) / cl.elapsed()
		offered = append(offered, rate)
		calls, same := b.churn.next(openBlocks * len(churnBlock))
		// The schedule is in slots; burst pairs put two requests in one.
		slots := float64(len(calls) - len(same))
		open = append(open, b.send(calls, fixedRate(len(calls), rate*slots/float64(len(calls)), same), first))
	}
	v1 := b.varz()
	if events != nil {
		w.events = events()
	}
	w.varz = make(map[string]int64)
	for k, v := range v1 {
		w.varz[k] = v - v0[k]
	}

	dispositions := make(map[string]int)
	var missLat, blockRates []float64
	closedOps, closedSecs := 0, 0.0
	for k, st := range append(open, closed...) {
		isOpen := k < len(open)
		w.ops += len(st.calls)
		w.cost = w.cost.plus(st.cost)
		for i, r := range st.replies {
			if r.ok && r.body != nil {
				if err := checkDirect(st.calls[i].req, r.body); err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", st.calls[i].body, err)
					r.ok = false
				}
			}
			if !r.ok {
				w.failed++
			}
			dispositions[r.cache]++
			if !isOpen {
				w.lat = append(w.lat, (st.load.done[i] - st.load.sent[i]).Seconds())
				continue
			}
			lat := st.load.latency(i).Seconds()
			w.openLat = append(w.openLat, lat)
			w.lag = append(w.lag, st.load.lag(i).Seconds())
			if r.cache == "miss" {
				missLat = append(missLat, lat)
			}
		}
		if !isOpen {
			closedOps += len(st.calls)
			closedSecs += st.elapsed()
			blockRates = append(blockRates, st.blockRates()...)
		}
	}
	w.rate = median(blockRates)
	lat, openLat, miss := summarize(w.lat), summarize(w.openLat), summarize(missLat)
	w.notes = append(w.notes,
		fmt.Sprintf("requests %d: hit %d, miss %d, collapsed %d", w.ops, dispositions["hit"], dispositions["miss"], dispositions["collapsed"]),
		fmt.Sprintf("closed loop: %d requests in %.3f s over %d connections (%.4g/s); median of %d block rates %.4g/s",
			closedOps, closedSecs, b.conns, float64(closedOps)/closedSecs, len(blockRates), w.rate),
		fmt.Sprintf("open loop: offered %s requests/s per round (%g of the closed-loop rate before it)", fmtList(offered, 4), churnLoad),
		fmt.Sprintf("open-loop latency from due time, raw ms: %s; misses only: %s", openLat.describe(1e3), miss.describe(1e3)),
		fmt.Sprintf("latency limit %s on the open-loop p%g: met=%v", churnLimit, openLat.tailQ*100,
			openLat.tail <= churnLimit.Seconds()),
		fmt.Sprintf("closed-loop latency, raw ms: %s", lat.describe(1e3)))
	return w
}

// probeKernels attaches a fresh KernelProbe to every kernel created
// until the returned function is called; that function removes the
// hook and returns the events the probes saw fire. Call it only after
// the kernels have finished.
func probeKernels() func() uint64 {
	var mu sync.Mutex
	var probes []*obs.KernelProbe
	if !sim.InstallKernelHook(func(k *sim.Kernel) {
		p := obs.NewKernelProbe()
		mu.Lock()
		probes = append(probes, p)
		mu.Unlock()
		k.SetProbe(p)
	}) {
		panic("perfbench: a kernel hook is already installed")
	}
	return func() uint64 {
		sim.SetKernelHook(nil)
		mu.Lock()
		defer mu.Unlock()
		var n uint64
		for _, p := range probes {
			n += p.Fired()
		}
		return n
	}
}

// reply is what one request leaves behind: its cache disposition,
// whether it passed the checks made as it arrived, and its body when a
// comparison with a direct interpretation is still due.
type reply struct {
	cache string
	ok    bool
	body  []byte
}

// keyBodies holds the first body served for each key.
type keyBodies struct {
	mu sync.Mutex
	m  map[string][]byte
}

// judge checks a response as it arrives: an error, a status other than
// 200 or a body that differs from another body served for its key fails
// it. Sampled bodies are kept for a direct interpretation after the
// window.
func (b *serveBench) judge(c call, out outcome, first *keyBodies) reply {
	r := reply{cache: out.cache, ok: out.err == nil && out.status == http.StatusOK && out.key != ""}
	if !r.ok {
		return r
	}
	first.mu.Lock()
	if prev, seen := first.m[out.key]; seen {
		r.ok = bytes.Equal(prev, out.body)
	} else {
		first.m[out.key] = out.body
	}
	first.mu.Unlock()
	if c.check {
		r.body = out.body
	}
	return r
}

// varz reads the serve scope's counters from /varz.
func (b *serveBench) varz() map[string]int64 {
	resp, err := b.client.Get(b.url + "/varz")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil
	}
	for _, sc := range snap.Scopes {
		if sc.Name == "serve" {
			return sc.Counters
		}
	}
	return nil
}

// close stops the HTTP server, waits for it, and closes the service's
// worker pool, all once: mc.Pool.Close panics when called twice.
func (b *serveBench) close() {
	b.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		b.hs.Shutdown(ctx)
		<-b.served
		b.transport.CloseIdleConnections()
		b.srv.Close()
	})
}

// churnGen generates serve_churn traffic: mostly cache misses on fresh
// seeds and inline user-submitted specs, weighted toward the
// simulation-heavy models, plus burst pairs of one fresh key due at
// once (single-flight collapse) and repeats of recent keys.
type churnGen struct {
	rng      *rand.Rand
	nextSeed int64
	recent   []call
	variant  map[string]int // inline template -> next parameter value
}

// churnSlot is one schedule slot of serve_churn traffic.
type churnSlot struct {
	kind int
	id   string // scenario the slot's request is built on
}

const (
	slotFresh  = iota // registered scenario, fresh seed
	slotInline        // inline spec with changed parameters, fresh seed
	slotPair          // a fresh key sent twice at the same due time
	slotRepeat        // a recently sent key again
)

// churnBlock is one block of serve_churn traffic: 32 slots carrying 36
// requests. Every block has exactly this composition, in a seeded
// order (see arrange), so the cost of the mix does not depend on the
// seed.
var churnBlock = []churnSlot{
	{slotFresh, "E4"}, {slotFresh, "E4"},
	{slotFresh, "E5"}, {slotFresh, "E5"}, {slotFresh, "E5"}, {slotFresh, "E5"},
	{slotFresh, "E5b"},
	{slotFresh, "E6b"}, {slotFresh, "E6b"}, {slotFresh, "E6b"},
	{slotFresh, "E7"}, {slotFresh, "E7"},
	{slotFresh, "E9"}, {slotFresh, "E9"},
	{slotFresh, "E10"}, {slotFresh, "E10"},
	{slotInline, "E10"}, {slotInline, "E10"},
	{slotInline, "E6b"}, {slotInline, "E6b"},
	{slotInline, "E5"}, {slotInline, "E5"},
	{slotInline, "E7"}, {slotInline, "E4"},
	{slotPair, "E5"}, {slotPair, "E6b"}, {slotPair, "E7"}, {slotPair, "E10"},
	{slotRepeat, ""}, {slotRepeat, ""}, {slotRepeat, ""}, {slotRepeat, ""},
}

// inlineValues is, per inline template, the quick-mode parameter a user
// changes and the values it cycles through.
var inlineValues = map[string]struct {
	quick  string
	values []float64
}{
	"E10": {"runs", []float64{30, 40, 50}},
	"E6b": {"p", []float64{8, 16}},
	"E5":  {"reps", []float64{8, 10, 12}},
	"E7":  {"p", []float64{8, 16}},
	"E4":  {"nodes", []float64{8, 16}},
}

// checkShare is the share of distinct fresh requests compared against a
// direct interpretation.
const checkShare = 0.02

// churnBlockRequests is the number of requests churnBlock carries: one
// per slot, two per burst pair.
var churnBlockRequests = func() int {
	n := len(churnBlock)
	for _, s := range churnBlock {
		if s.kind == slotPair {
			n++
		}
	}
	return n
}()

// heavyID is the scenario of churnBlock's heaviest slots: E4 costs
// about 30 ms in quick mode, six times the median request.
const heavyID = "E4"

// arrange lays out one block: the heavy slots evenly spaced from its
// first slot on, in a seeded order, and the other slots shuffled between
// them. Heavy requests then never pile up on each other by the luck of
// a seed, so the tail of every run is made of the same event: a heavy
// request among lighter churn. Shuffled freely, the number of heavy
// pile-ups in a run, and with it the p99, varied from seed to seed.
func (g *churnGen) arrange() []churnSlot {
	var heavy, light []churnSlot
	for _, s := range churnBlock {
		if s.id == heavyID {
			heavy = append(heavy, s)
		} else {
			light = append(light, s)
		}
	}
	g.rng.Shuffle(len(heavy), func(i, j int) { heavy[i], heavy[j] = heavy[j], heavy[i] })
	g.rng.Shuffle(len(light), func(i, j int) { light[i], light[j] = light[j], light[i] })
	block := make([]churnSlot, 0, len(churnBlock))
	step := len(churnBlock) / len(heavy)
	for i := range churnBlock {
		if i%step == 0 && len(heavy) > 0 {
			block, heavy = append(block, heavy[0]), heavy[1:]
		} else {
			block, light = append(block, light[0]), light[1:]
		}
	}
	return block
}

func (g *churnGen) next(slots int) ([]call, map[int]bool) {
	var calls []call
	same := make(map[int]bool)
	var block []churnSlot
	for s := 0; s < slots; s++ {
		if s%len(churnBlock) == 0 {
			block = g.arrange()
		}
		switch slot := block[s%len(block)]; {
		case slot.kind == slotRepeat && len(g.recent) > 0:
			calls = append(calls, g.recent[g.rng.Intn(len(g.recent))])
		case slot.kind == slotInline:
			calls = append(calls, g.fresh(g.inline(slot.id)))
		case slot.kind == slotPair:
			c := g.fresh(serve.Request{ID: slot.id})
			calls = append(calls, c)
			same[len(calls)] = true
			calls = append(calls, c)
		case slot.kind == slotRepeat:
			calls = append(calls, g.fresh(serve.Request{ID: "E5"}))
		default:
			calls = append(calls, g.fresh(serve.Request{ID: slot.id}))
		}
	}
	return calls, same
}

// fresh gives req a seed no earlier request used and remembers it among
// the recent keys.
func (g *churnGen) fresh(req serve.Request) call {
	seed := g.nextSeed
	g.nextSeed++
	req.Seed = &seed
	c := newCall(req)
	c.check = g.rng.Float64() < checkShare
	g.recent = append(g.recent, c)
	if len(g.recent) > 8 {
		g.recent = g.recent[1:]
	}
	return c
}

// inline builds a user-submitted spec: the registered scenario's JSON
// under a new ID with a quick-mode parameter changed, plus a request
// parameter override where the model has one to spare.
func (g *churnGen) inline(id string) serve.Request {
	sc, err := experiments.ScenarioByID(id)
	if err != nil {
		panic(err) // churnBlock names registered scenarios only
	}
	v := inlineValues[id]
	spec := sc.Clone()
	spec.ID = "user-" + id
	spec.Quick[v.quick] = v.values[g.variant[id]%len(v.values)]
	g.variant[id]++
	req := serve.Request{Spec: spec}
	if id == "E10" {
		req.Params = map[string]float64{"overhead-min": float64(4 + g.variant[id]%3)}
	}
	return req
}
