package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/daas"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/rpc"
	"repro/internal/screen"
	"repro/internal/worldgen"
)

// The screen workload drives daas_screen/daas_screenBatch over
// loopback HTTP as an open loop.
const (
	// screenScale is the study workload's world, whose records seed
	// the snapshot.
	screenScale = 0.05
	// screenListed pads the snapshot to Table 1's expanded dataset:
	// 1,910 contracts + 56 operators + 6,087 affiliates.
	screenListed = 1910 + 56 + 6087
	batchSize    = 1024
	// singleShare of the requests are single-address daas_screen calls.
	singleShare = 0.25
	// listedShare of the queried addresses are listed.
	listedShare = 0.10
	// screenRate is the offered load in requests per second, about
	// half the single-connection capacity of this request mix
	// (perfbench --workload screen --capacity; 2 vCPUs).
	screenRate = 64
	// screenWorkers bounds the requests in flight, and so the
	// connections, to the CPU count of the reference machine.
	screenWorkers = 2
)

// screenWorkload: one op is one request. Requests are due at fixed
// intervals; each is timed from when it was due.
type screenWorkload struct {
	seed    uint64
	reg     *obs.Registry
	eng     *screen.Engine
	handler *rpc.Server
	listed  []ethtypes.Address
	srv     *server
	// first numbers the next phase's requests, so no two phases
	// send the same schedule.
	first int
}

// server is one running HTTP front end of the screening handler.
type server struct {
	hs   *http.Server
	url  string
	done chan error
}

func startServer(hs *http.Server) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{hs: hs, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for it to exit.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close() // drain timed out; force it
	}
	<-s.done
}

func (w *screenWorkload) setup(seed uint64) error {
	w.seed = seed
	cfg := worldgen.DefaultConfig(seed)
	cfg.Scale = screenScale
	world, err := worldgen.Generate(cfg)
	if err != nil {
		return err
	}
	w.reg = obs.NewRegistry()
	client := daas.New(core.LocalSource{Chain: world.Chain}, world.Labels, world.Oracle)
	client.Metrics = w.reg
	client.Concurrency = runtime.NumCPU()
	ds, err := client.BuildDataset()
	if err != nil {
		return err
	}
	fams, err := client.Cluster(ds)
	if err != nil {
		return err
	}
	b := screen.NewBuilder()
	for _, r := range screen.Compile(ds, fams, nil).Records() {
		b.Add(r)
	}
	rng := newRNG(seed ^ 0x5C4EE4)
	kinds := []screen.Kind{screen.KindContract, screen.KindOperator, screen.KindAffiliate}
	reasons := []string{screen.ReasonContract, screen.ReasonOperator, screen.ReasonAffiliate}
	for b.Len() < screenListed {
		k := 2 // affiliates dominate Table 1
		switch x := rng.intn(screenListed); {
		case x < 1910:
			k = 0
		case x < 1910+56:
			k = 1
		}
		r := screen.Record{Address: rng.address(), Kind: kinds[k], Reason: reasons[k]}
		if len(fams) > 0 {
			r.Family = fams[rng.intn(len(fams))].Name
		}
		b.Add(r)
	}
	snap := b.Build()
	w.eng = screen.NewEngine(w.reg)
	w.eng.Swap(snap)
	for _, r := range snap.Records() {
		w.listed = append(w.listed, r.Address)
	}
	w.handler = &rpc.Server{Screen: w.eng, Metrics: w.reg}
	if w.srv, err = startServer(w.handler.HTTPServer("127.0.0.1:0")); err != nil {
		return err
	}
	// Warm-up: one request of each class.
	c := rpc.NewClient(w.srv.url)
	for _, n := range []int{batchSize, 1} {
		if _, err := w.call(c, w.addresses(-1-n, n)); err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
	}
	return nil
}

func (w *screenWorkload) close() {
	if w.srv != nil {
		w.srv.stop()
	}
}

// request i of the schedule: its class and addresses, drawn from the
// seed and i alone.
func (w *screenWorkload) request(i int) []ethtypes.Address {
	rng := newRNG(w.seed*0x9E3779B97F4A7C15 ^ uint64(i))
	n := batchSize
	if rng.float() < singleShare {
		n = 1
	}
	return w.addressesFrom(rng, n)
}

func (w *screenWorkload) addresses(i, n int) []ethtypes.Address {
	return w.addressesFrom(newRNG(w.seed^uint64(i)), n)
}

func (w *screenWorkload) addressesFrom(rng *rng, n int) []ethtypes.Address {
	out := make([]ethtypes.Address, n)
	for j := range out {
		if rng.float() < listedShare {
			out[j] = w.listed[rng.intn(len(w.listed))]
		} else {
			out[j] = rng.address()
		}
	}
	return out
}

// call sends one request: daas_screen for one address,
// daas_screenBatch for more.
func (w *screenWorkload) call(c *rpc.Client, addrs []ethtypes.Address) ([]rpc.ScreenResult, error) {
	if len(addrs) == 1 {
		r, err := c.Screen(addrs[0])
		if err != nil {
			return nil, err
		}
		return []rpc.ScreenResult{r}, nil
	}
	return c.ScreenBatch(addrs)
}

// verify compares wire verdicts with the engine's in-process ones.
func (w *screenWorkload) verify(addrs []ethtypes.Address, got []rpc.ScreenResult) error {
	if len(got) != len(addrs) {
		return fmt.Errorf("%d verdicts for %d addresses", len(got), len(addrs))
	}
	for i, a := range addrs {
		rec, listed := w.eng.Screen(a)
		g := got[i]
		ok := g.Address == a && g.Listed == listed
		if ok && listed {
			ok = g.Kind == rec.Kind.String() && g.Reason == rec.Reason && g.Family == rec.Family &&
				g.Tainted == rec.Tainted && g.StaticFlagged == rec.StaticFlagged
		}
		if !ok {
			return fmt.Errorf("address %d (%s): wire verdict %+v, engine says listed=%v %+v", i, a.Hex(), g, listed, rec)
		}
	}
	return nil
}

// sample is one request's measurements.
type sample struct {
	single              bool
	latency, late, call time.Duration
	roundtrip, server   time.Duration
	lookup              time.Duration
	reqBytes, respBytes int64
	addrs               int
	due                 time.Time
}

func (w *screenWorkload) measure(d time.Duration, tr *tracer) (*result, error) {
	srv := w.srv
	var th *timedHandler
	if tr != nil {
		// The traced phase gets its own front end with the handler
		// timed, so the untraced server stays as shipped.
		hs := w.handler.HTTPServer("127.0.0.1:0")
		th = newTimedHandler(hs.Handler, screenWorkers)
		hs.Handler = th
		var err error
		if srv, err = startServer(hs); err != nil {
			return nil, err
		}
		defer srv.stop()
	}
	n := int(screenRate * d.Seconds())
	first := w.first
	w.first += n
	interval := time.Second / screenRate

	var (
		mu      sync.Mutex
		res     = &result{classes: map[string][]float64{}, layers: map[string]float64{}}
		samples []sample
		next    atomic.Int64
		shed    int
	)
	cpu0 := cpuTime()
	start := time.Now().Add(interval)
	var wg sync.WaitGroup
	for wk := 0; wk < screenWorkers; wk++ {
		c := rpc.NewClient(srv.url)
		var tt *timedTransport
		var hst httpStats
		if tr != nil {
			tt = newTimedTransport(nil, &hst, wk)
			c.HTTPClient.Transport = tt
		}
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				addrs := w.request(first + i)
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due))
				s := sample{single: len(addrs) == 1, addrs: len(addrs), due: due}
				sent := time.Now()
				s.late = sent.Sub(due)
				req0, resp0 := hst.reqBytes.Load(), hst.respBytes.Load()
				got, err := w.call(c, addrs)
				done := time.Now()
				s.call, s.latency = done.Sub(sent), done.Sub(due)
				if tt != nil {
					s.roundtrip = time.Duration(tt.last.Load())
					s.server, _ = th.take(wk)
					s.reqBytes = hst.reqBytes.Load() - req0
					s.respBytes = hst.respBytes.Load() - resp0
				}
				if err == nil {
					if tt != nil {
						lk := time.Now()
						for _, a := range addrs {
							w.eng.Screen(a)
						}
						s.lookup = time.Since(lk)
					}
					err = w.verify(addrs, got)
				}
				mu.Lock()
				res.attempted++
				var he *retry.HTTPError
				switch {
				case errors.As(err, &he) && he.Status == http.StatusServiceUnavailable:
					shed++
					res.fail("screen: request %d shed", first+i)
				case err != nil:
					res.fail("screen: request %d: %v", first+i, err)
				default:
					samples = append(samples, s)
				}
				mu.Unlock()
			}
		}(wk)
	}
	wg.Wait()
	res.cpu = cpuTime() - cpu0

	var late, lookup, reqB, respB []float64
	var batch, single rpcSplit
	for _, s := range samples {
		lat := ms(s.latency)
		res.lat = append(res.lat, lat)
		late = append(late, ms(s.late))
		if s.single {
			res.minor = append(res.minor, lat)
			res.classes["screen_single"] = append(res.classes["screen_single"], lat)
		} else {
			res.classes["screen_batch"] = append(res.classes["screen_batch"], lat)
		}
		if tr == nil {
			continue
		}
		op := s.index(start, interval)
		root := tr.add(0, op, "screen.request", class(s.single), s.due, s.latency)
		tr.add(root, op, "loadgen.late", "", s.due, s.late)
		rt := tr.add(root, op, "rpc.roundtrip", "", s.due.Add(s.late), s.roundtrip)
		tr.add(rt, op, "rpc.server", "", s.due.Add(s.late), s.server)
		res.covered += s.late + s.roundtrip
		res.opTime += s.latency
		if s.single {
			single.add(s)
			continue
		}
		batch.add(s)
		lookup = append(lookup, s.lookup.Seconds()*1e6)
		reqB = append(reqB, float64(s.reqBytes)/float64(s.addrs))
		respB = append(respB, float64(s.respBytes)/float64(s.addrs))
	}
	res.layers["loadgen.late_ms"] = median(late)
	res.layers["rpc.shed"] = float64(shed)
	if tr != nil {
		batch.report(res.layers, "rpc.")
		single.report(res.layers, "rpc.single_")
		res.layers["screen.lookup_us"] = median(lookup)
		res.layers["rpc.req_bytes"] = median(reqB)
		res.layers["rpc.resp_bytes"] = median(respB)
		res.layers["screen.records"] = float64(w.eng.Snapshot().Len())
	}
	fmt.Printf("screen: %d requests at %d/s (%d single), late p50 %.3f ms\n",
		n, screenRate, len(res.minor), median(late))
	return res, nil
}

// rpcSplit collects the traced split of one request class: client
// codec (call minus round trip), round trip, server, and wire (round
// trip minus server).
type rpcSplit struct{ client, roundtrip, server, wire []float64 }

func (p *rpcSplit) add(s sample) {
	p.client = append(p.client, ms(s.call-s.roundtrip))
	p.roundtrip = append(p.roundtrip, ms(s.roundtrip))
	p.server = append(p.server, ms(s.server))
	p.wire = append(p.wire, ms(s.roundtrip-s.server))
}

// report stores the split's medians under prefix.
func (p *rpcSplit) report(layers map[string]float64, prefix string) {
	layers[prefix+"client_ms"] = median(p.client)
	layers[prefix+"roundtrip_ms"] = median(p.roundtrip)
	layers[prefix+"server_ms"] = median(p.server)
	layers[prefix+"wire_ms"] = median(p.wire)
}

func (s sample) index(start time.Time, interval time.Duration) int {
	return int(s.due.Sub(start)/interval) + 1
}

func class(single bool) string {
	if single {
		return "single"
	}
	return "batch"
}

// capacity runs the request mix as a closed loop on one connection
// for d and prints the requests per second it sustained.
func (w *screenWorkload) capacity(d time.Duration) error {
	c := rpc.NewClient(w.srv.url)
	start := time.Now()
	n := 0
	for ; time.Since(start) < d; n++ {
		if _, err := w.call(c, w.request(n)); err != nil {
			return err
		}
	}
	rate := float64(n) / time.Since(start).Seconds()
	fmt.Printf("single-connection capacity: %.1f requests/s (offered rate %d/s)\n", rate, screenRate)
	return nil
}

// rng is splitmix64: small, fast, and the same on every platform.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) address() ethtypes.Address {
	var a ethtypes.Address
	for i := 0; i < len(a); i += 8 {
		v := r.next()
		for j := i; j < len(a) && j < i+8; j++ {
			a[j] = byte(v >> (8 * (j - i)))
		}
	}
	return a
}
