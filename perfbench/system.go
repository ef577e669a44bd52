package main

// Building, driving and checking one repetition's system under test.
// Every repetition gets a fresh broker, a fresh WAL directory and a
// fresh cluster: on a warm server the seeded Idempotency-Keys of an
// earlier repetition would replay instead of selling.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datamarket/mbp/internal/httpapi"
	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/market/markettest"
	"github.com/datamarket/mbp/internal/obs"
	"github.com/datamarket/mbp/internal/replica"
	"github.com/datamarket/mbp/internal/repricer"
	"github.com/datamarket/mbp/internal/store"
	"github.com/datamarket/mbp/internal/workload"
)

// mode is how the harness reaches the broker.
type mode int

const (
	inProcess mode = iota // workload.BrokerClient, in-memory ledger, repricer at barriers
	httpWAL               // HTTP, durable ledger fsyncing every append
	quorum                // HTTP to the leader of a 3-node quorum-ack cluster
)

// spec is one benchmark workload.
type spec struct {
	name     string
	scenario string
	// buyers is the population of one repetition. Economic results are
	// exact functions of (scenario, buyers, seed), so it is fixed, and
	// a run repeats the same schedule until its time is up.
	buyers int
	// repriceEvery runs a repricer epoch at every such buyer barrier.
	repriceEvery int
	// sellers splits every durable sale across this many Shapley-staked
	// sellers, so each WAL frame carries an attribution table.
	sellers int
	// clients is how many closed-loop buyer sessions run at once; 0
	// means one per CPU. Over HTTP every op keeps a client and a server
	// goroutine busy and a durable buy parks on an fsync, so two clients
	// on a two-CPU host measured the scheduler: on http-wal over loopback
	// TCP, five seeds of 30 s spread throughput by 0.39 of its median
	// with two clients and by 0.11 with one.
	clients int
	// procs, when not 0, is the GOMAXPROCS of the run. With one P the
	// client and server hand each op over by a goroutine switch instead
	// of waking the other vCPU, whose cost is the hypervisor's: on
	// http-wal over loopback TCP, buy p90 spread 0.06 of its median
	// across seeds at one P against 0.14 at two. The three quorum nodes
	// need both CPUs.
	procs int
	mode  mode
}

var specs = []spec{
	{name: "inproc-reprice", scenario: "demand-shift", buyers: 20000, repriceEvery: 250, mode: inProcess},
	{name: "http-wal", scenario: "steady", buyers: 1000, sellers: 3, clients: 1, procs: 1, mode: httpWAL},
	{name: "quorum", scenario: "steady", buyers: 1000, sellers: 3, clients: 1, mode: quorum},
}

// workers is how many clients the spec runs at once.
func (s spec) workers() int {
	if s.clients > 0 {
		return s.clients
	}
	return runtime.NumCPU()
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// tailFrom is the start of the window reprice_recovery is read over:
// arrivals in [0.7, 1). On demand-shift that is the last half of the
// post-shift span (workload's own recovery tail); on steady there is
// no shift, and the ratio is the tail's realized revenue over the DP
// optimum for the tail's buyers.
const tailFrom = 0.7

var discard = slog.New(slog.NewJSONHandler(io.Discard, nil))

// checkError is a failed correctness check: the run reports a failure,
// not numbers.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func checkFailed(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// node is one durable broker behind its own HTTP server. The server's
// listener exists before it serves, so a node knows its URL while its
// replication wiring is built. Nodes reach each other over loopback
// TCP; the benchmark's client reaches a node through pipe.
type node struct {
	broker *market.Broker
	ledger *market.DurableLedger
	repl   *replica.Node
	srv    *httptest.Server
	pipe   *pipeListener
	served chan struct{} // closed when the server stops serving pipe
}

func newNode(b *market.Broker, d *market.DurableLedger) *node {
	return &node{broker: b, ledger: d, srv: httptest.NewUnstartedServer(nil), pipe: newPipeListener(), served: make(chan struct{})}
}

func (n *node) url() string { return "http://" + n.srv.Listener.Addr().String() }

func (n *node) serve(h http.Handler) {
	n.srv.Config.Handler = h
	n.srv.Start()
	go func() {
		defer close(n.served)
		n.srv.Config.Serve(n.pipe)
	}()
}

// stopServing closes both listeners and waits for the server's
// connections to finish; calling it twice is harmless.
func (n *node) stopServing() {
	n.pipe.Close()
	n.srv.Close()
	if n.srv.URL != "" {
		<-n.served
	}
}

// close stops the node.
func (n *node) close() {
	if n.repl != nil {
		n.repl.Stop()
	}
	n.stopServing()
	n.ledger.Close()
}

// pipeListener hands the server the far ends of in-memory connections
// that dial makes. Over it a request still crosses net/http's client
// and server, but not the kernel's loopback path (socket calls, softirq
// delivery, netpoll wakeups): on a shared two-vCPU host, http-wal quote
// p50 over loopback TCP read 36 µs in one half hour and 71 µs in
// another, while the in-process quote moved about 10%.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial is an http.Transport's DialContext: it ignores the address.
func (l *pipeListener) dial(ctx context.Context, _, _ string) (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.done:
		c.Close()
		return nil, net.ErrClosed
	case <-ctx.Done():
		c.Close()
		return nil, ctx.Err()
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// storeProbe is the benchmark's own store.Hooks on the leader's WAL,
// chained by OpenDurableLedger after the program's metrics hooks.
type storeProbe struct {
	on      atomic.Bool // counts only while the load runs
	appends latencies
	fsyncs  atomic.Int64
	t       *tracer
}

func (p *storeProbe) hooks() store.Hooks {
	return store.Hooks{
		OnAppend: func(d time.Duration) {
			if p.on.Load() {
				p.appends.add(d)
				p.t.appended(d)
			}
		},
		OnFsync: func() {
			if p.on.Load() {
				p.fsyncs.Add(1)
			}
		},
	}
}

// ackTimer is the replica.BrokerControl the leader's replication node
// drives: it times the quorum wait the node installs with
// SetAckBarrier, as a child of the buy handler whose context it gets.
type ackTimer struct {
	*market.Broker
	t     *tracer
	waits *latencies
}

func (a *ackTimer) SetAckBarrier(wait func(ctx context.Context) error) {
	if wait == nil {
		a.Broker.SetAckBarrier(nil)
		return
	}
	a.Broker.SetAckBarrier(func(ctx context.Context) error {
		s := a.t.open(spanFrom(ctx), layerReplica, "quorum_wait")
		err := wait(ctx)
		a.waits.add(a.t.close(s).dur())
		return err
	})
}

// system is one repetition's system under test.
type system struct {
	spec   spec
	seed   uint64
	client workload.Client
	broker *market.Broker // the broker that sells (the leader on quorum)
	nodes  []*node        // leader first; none in-process
	dir    string         // the repetition's WAL directories
	hc     *http.Client
	rp     *repricer.Repricer
	sched  *workload.Schedule

	schedBuild time.Duration
	probe      *storeProbe // traced durable repetitions only
	waits      *latencies  // quorum waits, traced repetitions only
}

// deploy builds a fresh system and its schedule. t is nil for an
// untraced repetition.
func deploy(ctx context.Context, sp spec, seed uint64, workers int, dir string, t *tracer) (*system, error) {
	sys := &system{spec: sp, seed: seed, dir: dir}
	if err := sys.build(ctx, workers, t); err != nil {
		sys.teardown()
		return nil, err
	}
	return sys, nil
}

func (sys *system) build(ctx context.Context, workers int, t *tracer) error {
	sp, seed := sys.spec, sys.seed
	switch sp.mode {
	case inProcess:
		b, err := markettest.New(seed)
		if err != nil {
			return err
		}
		sys.broker = b
		sys.client = &workload.BrokerClient{B: b, Model: markettest.Model}
		if sp.repriceEvery > 0 {
			sys.rp = repricer.New(repricer.Config{
				Broker:   b,
				Model:    markettest.Model,
				Window:   repricer.DefaultWindow,
				Explore:  repricer.DefaultExplore,
				Seed:     seed,
				Registry: obs.NewRegistry(),
				Logger:   discard,
			})
		}
	case httpWAL, quorum:
		if err := sys.startCluster(seed, t); err != nil {
			return err
		}
		stakes, err := markettest.MultiSellerStakes(sp.sellers)
		if err != nil {
			return err
		}
		if err := sys.broker.SetSellerStakes(stakes); err != nil {
			return err
		}
		var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: workers, DialContext: sys.nodes[0].pipe.dial}
		if t != nil {
			rt = &transport{base: rt, t: t}
		}
		sys.hc = &http.Client{Transport: rt, Timeout: 30 * time.Second}
		sys.client = workload.NewHTTPClient(sys.nodes[0].url(), markettest.ModelName, sys.hc)
	}

	menu, err := sys.client.Menu(ctx)
	if err != nil {
		return fmt.Errorf("fetching menu: %w", err)
	}
	sc, err := workload.ScenarioByName(sp.scenario)
	if err != nil {
		return err
	}
	t0 := time.Now()
	sys.sched, err = workload.BuildSchedule(sc, menu, sp.buyers, seed)
	sys.schedBuild = time.Since(t0)
	return err
}

// startCluster starts the durable nodes: one for httpWAL; for quorum
// two followers and then the leader, which acknowledges a sale once a
// majority of the three nodes journaled it.
func (sys *system) startCluster(seed uint64, t *tracer) error {
	n := 1
	if sys.spec.mode == quorum {
		n = 3
	}
	if t != nil {
		sys.probe = &storeProbe{t: t}
	}
	nodes := make([]*node, n)
	for i := range nodes {
		var hooks store.Hooks
		if i == 0 && sys.probe != nil {
			hooks = sys.probe.hooks()
		}
		b, err := markettest.New(seed)
		if err != nil {
			return err
		}
		d, rs, err := market.OpenDurableLedger(filepath.Join(sys.dir, fmt.Sprintf("node%d", i)),
			store.Options{Policy: store.FsyncAlways, Hooks: hooks})
		if err != nil {
			return err
		}
		b.AttachDurableLedger(d, rs)
		nodes[i] = newNode(b, d)
		sys.nodes = append(sys.nodes, nodes[i])
	}
	leader := nodes[0]
	sys.broker = leader.broker
	opts := []httpapi.Option{httpapi.WithLogger(discard)}
	if n == 1 {
		leader.serve(t.handler(httpapi.New(leader.broker, opts...).Mux()))
		return nil
	}
	var targets []string
	for _, f := range nodes[1:] {
		f.broker.SetFollower(leader.url())
		r, err := replica.New(replica.Config{
			Store:   f.ledger.Store(),
			Applier: market.NewFollowerApplier(f.broker, f.ledger),
			Broker:  f.broker,
			Self:    f.url(),
			Logger:  discard,
		})
		if err != nil {
			return err
		}
		f.repl = r
		f.serve(httpapi.New(f.broker, append(opts, httpapi.WithReplication(r))...).Mux())
		targets = append(targets, f.url())
	}
	var ctl replica.BrokerControl = leader.broker
	if t != nil {
		sys.waits = &latencies{}
		ctl = &ackTimer{Broker: leader.broker, t: t, waits: sys.waits}
	}
	r, err := replica.New(replica.Config{
		Store:   leader.ledger.Store(),
		Broker:  ctl,
		Self:    leader.url(),
		Targets: targets,
		Ack:     replica.AckQuorum,
		Logger:  discard,
		Seed:    seed,
	})
	if err != nil {
		return err
	}
	leader.repl = r
	leader.serve(t.handler(httpapi.New(leader.broker, append(opts, httpapi.WithReplication(r))...).Mux()))
	r.StartLeading()
	return nil
}

// teardown stops every server and replication goroutine, closes the
// journals and removes the WAL directories.
func (sys *system) teardown() {
	for _, n := range sys.nodes {
		n.close()
	}
	sys.nodes = nil
	if sys.hc != nil {
		sys.hc.CloseIdleConnections()
	}
	os.RemoveAll(sys.dir)
}

// exact holds the economic results, which must be bit-identical across
// repetitions and worker counts for one seed.
type exact struct {
	Ops, BuyAttempts, Sales, Replays int
	RevenueRatio, Recovery           float64
	SaleFrac, ReplayFrac             float64
}

// repOut is what one repetition measured.
type repOut struct {
	traced     bool
	setup      time.Duration
	schedBuild time.Duration
	sched      *workload.Schedule
	report     *workload.Report
	exact      exact
	quote, buy dist         // exact latency percentiles of this repetition
	heapLive   uint64       // live heap at the end, system still reachable
	runtime    runtimeDelta // untraced repetitions only

	spans        []span
	appends      *latencies
	fsyncs       int64
	storeBusy    time.Duration // time at least one WAL append was in progress
	walBytes     int64
	waits        *latencies
	epochs       *latencies
	epochsRun    uint64
	epochsPublic uint64
}

// runRep deploys a fresh system, drives the schedule through it with
// workers closed-loop clients, checks the outputs and tears it down.
// When a check fails after the load ran, the result comes back with
// the error so the ops it attempted still count.
func runRep(ctx context.Context, sp spec, seed uint64, workers int, dir string, traced bool) (*repOut, error) {
	var t *tracer
	if traced {
		t = newTracer()
	}
	t0 := time.Now()
	sys, err := deploy(ctx, sp, seed, workers, dir, t)
	if err != nil {
		return nil, err
	}
	out := &repOut{traced: traced, setup: time.Since(t0), schedBuild: sys.schedBuild, sched: sys.sched, epochs: &latencies{}}
	defer sys.teardown()

	root := layerWorkload
	if sp.mode == inProcess {
		root = layerMarket
	}
	client := &timedClient{Client: sys.client, root: root, t: t}
	opts := workload.Options{Workers: workers, ClosedLoop: true}
	tail := sys.tailProbe(&opts)
	if sys.rp != nil {
		opts.BarrierEvery = sp.repriceEvery
		opts.AtBarrier = func(int) {
			s := t.open(spanRef{}, layerRepricer, "epoch")
			e0 := time.Now()
			sys.rp.Epoch(e0)
			out.epochs.add(time.Since(e0))
			t.close(s)
		}
	}

	if sys.probe != nil {
		sys.probe.on.Store(true)
	}
	var rt0 runtimeSample
	if !traced {
		rt0 = readRuntime()
	}
	rep, err := workload.Run(ctx, client, sys.sched, opts)
	if !traced {
		out.runtime = readRuntime().since(rt0)
	}
	if sys.probe != nil {
		sys.probe.on.Store(false)
	}
	if err != nil {
		return nil, err
	}
	out.report, out.quote, out.buy = rep, client.quotes.summary(), client.buys.summary()
	client.quotes.ns, client.buys.ns = nil, nil

	if err := sys.check(rep); err != nil {
		return out, err
	}
	if out.exact, err = sys.exactOf(rep, tail); err != nil {
		return out, err
	}
	if sys.rp != nil {
		sum := sys.rp.Summary()
		out.epochsRun, out.epochsPublic = sum.Epochs, sum.Published
	}
	if len(sys.nodes) > 0 {
		if out.walBytes, err = walBytes(filepath.Join(sys.dir, "node0")); err != nil {
			return out, err
		}
	}
	if t != nil {
		out.spans = t.spans
		out.waits = sys.waits
		if sys.probe != nil {
			out.appends, out.fsyncs = &sys.probe.appends, sys.probe.fsyncs.Load()
			out.storeBusy = storeBusy(t.spans)
		}
	}

	// Live heap with the system still reachable: the deferred teardown
	// holds sys.
	out.heapLive = liveHeap()
	if sp.mode == httpWAL {
		if err := sys.checkRecovery(rep); err != nil {
			return out, err
		}
	}
	return out, nil
}

// tailProbe arranges, on a scenario without a population shift, a
// barrier at the first buyer of the tail window and returns the set of
// sales recorded before it.
func (sys *system) tailProbe(opts *workload.Options) map[int]bool {
	if sys.sched.Scenario.Shift != nil {
		return nil
	}
	buyers := sys.sched.Buyers
	k := sort.Search(len(buyers), func(i int) bool { return buyers[i].Arrival >= tailFrom })
	before := make(map[int]bool)
	opts.BarrierEvery = k
	opts.AtBarrier = func(done int) {
		if done == k {
			for _, tx := range sys.broker.Ledger() {
				before[tx.Seq] = true
			}
		}
	}
	return before
}

// exactOf derives the exact economic results of a run.
func (sys *system) exactOf(rep *workload.Report, before map[int]bool) (exact, error) {
	ex := exact{
		Ops:          rep.Ops["total"].Issued,
		BuyAttempts:  rep.Ops["buy"].Issued + rep.Ops["buy-budget"].Issued,
		Sales:        rep.Revenue.Sales,
		Replays:      rep.Ops["total"].Replays,
		RevenueRatio: rep.Revenue.Ratio,
	}
	if ex.BuyAttempts == 0 {
		return ex, checkFailed("no buy attempts in %d ops", ex.Ops)
	}
	ex.SaleFrac = float64(ex.Sales) / float64(ex.BuyAttempts)
	ex.ReplayFrac = float64(ex.Replays) / float64(ex.BuyAttempts)
	if rep.Shift != nil {
		ex.Recovery = rep.Shift.Recovery
		return ex, nil
	}
	// Sum the tail's prices in sorted order: the ledger's row order
	// depends on worker interleaving, the set of prices does not.
	var prices []float64
	for _, tx := range sys.broker.Ledger() {
		if !before[tx.Seq] {
			prices = append(prices, tx.Price)
		}
	}
	sort.Float64s(prices)
	var realized float64
	for _, p := range prices {
		realized += p
	}
	intents := 0
	for _, b := range sys.sched.Buyers {
		if b.Arrival >= tailFrom && b.Archetype != workload.Prober {
			intents++
		}
	}
	opt := sys.sched.OptRevenuePerBuyer * float64(intents)
	if opt <= 0 {
		return ex, checkFailed("tail window holds no purchase intent")
	}
	ex.Recovery = realized / opt
	return ex, nil
}

// check applies the correctness checks every repetition must pass.
func (sys *system) check(rep *workload.Report) error {
	if !rep.Invariants.Passed {
		return checkFailed("invariants failed: %s", strings.Join(rep.Invariants.Failures, "; "))
	}
	if sys.rp != nil {
		if sum := sys.rp.Summary(); sum.Rejected > 0 {
			return checkFailed("repricer rejected %d candidate menus", sum.Rejected)
		}
	}
	if sys.spec.mode == quorum {
		return sys.checkConverged()
	}
	return nil
}

// checkConverged waits for every follower to hold the leader's whole
// stream: equal frame counts and equal stream digests.
func (sys *system) checkConverged() error {
	lead := sys.nodes[0].ledger.Store()
	deadline := time.Now().Add(10 * time.Second)
	for {
		behind := ""
		for i, f := range sys.nodes[1:] {
			st := f.ledger.Store()
			if st.Frames() != lead.Frames() || st.StreamDigest() != lead.StreamDigest() {
				behind = fmt.Sprintf("follower %d at frame %d digest %08x, leader at frame %d digest %08x",
					i+1, st.Frames(), st.StreamDigest(), lead.Frames(), lead.StreamDigest())
			}
		}
		if behind == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return checkFailed("replicas diverged: %s", behind)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkRecovery closes the leader's journal and reopens its directory:
// the recovered ledger must hold exactly the acknowledged sales.
func (sys *system) checkRecovery(rep *workload.Report) error {
	n := sys.nodes[0]
	live := n.broker.Ledger()
	n.stopServing()
	if err := n.ledger.Close(); err != nil {
		return fmt.Errorf("closing journal: %w", err)
	}
	d, rs, err := market.OpenDurableLedger(n.ledger.Dir(), store.Options{})
	if err != nil {
		return checkFailed("reopening journal: %v", err)
	}
	n.ledger = d
	b, err := markettest.New(sys.seed)
	if err != nil {
		return err
	}
	b.AttachDurableLedger(d, rs)
	got := b.Ledger()
	if len(got) != rep.Revenue.Sales || len(live) != rep.Revenue.Sales || len(rs.Lost) > 0 {
		return checkFailed("recovered %d sales (%d lost seqs), served %d, acknowledged %d",
			len(got), len(rs.Lost), len(live), rep.Revenue.Sales)
	}
	for i := range got {
		a, w := got[i], live[i]
		if a.Seq != w.Seq || math.Float64bits(a.Price) != math.Float64bits(w.Price) ||
			a.Delta != w.Delta || len(a.Shares) != len(w.Shares) || a.BrokerShare != w.BrokerShare {
			return checkFailed("recovered row %d differs: %+v vs %+v", i, a, w)
		}
		for j := range a.Shares {
			if a.Shares[j] != w.Shares[j] {
				return checkFailed("recovered row %d share %d differs: %+v vs %+v", i, j, a.Shares[j], w.Shares[j])
			}
		}
	}
	return nil
}

// storeBusy is the length of the union of the WAL append spans. An
// append's span includes its wait for the store's lock, which another
// append holds, so the union is the time the store was working.
func storeBusy(spans []span) time.Duration {
	var appends []span
	all := span{Start: math.MinInt64, End: math.MaxInt64}
	for _, s := range spans {
		if s.Layer == layerStore {
			appends = append(appends, s)
		}
	}
	return covered(all, appends)
}

// walBytes is the size of the journal's log segments and snapshots.
func walBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".log") || strings.HasSuffix(e.Name(), ".db") {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			total += info.Size()
		}
	}
	return total, nil
}

// timedClient records every quote and buy latency exactly and, in a
// traced repetition, opens the root span of each op. Untraced, it adds
// nothing to the op's context.
type timedClient struct {
	workload.Client
	root         string
	t            *tracer
	quotes, buys latencies
}

func (c *timedClient) begin(ctx context.Context, op string) (context.Context, span) {
	if c.t == nil {
		return ctx, span{}
	}
	s := c.t.open(spanRef{}, c.root, op)
	return withSpan(ctx, s.ref()), s
}

func (c *timedClient) Quote(ctx context.Context, delta float64) (float64, float64, error) {
	ctx, s := c.begin(ctx, "quote")
	t0 := time.Now()
	p, e, err := c.Client.Quote(ctx, delta)
	c.quotes.add(time.Since(t0))
	c.t.close(s)
	return p, e, err
}

func (c *timedClient) BuyAtPoint(ctx context.Context, delta float64, key string) (workload.BuyResult, error) {
	ctx, s := c.begin(ctx, "buy")
	t0 := time.Now()
	r, err := c.Client.BuyAtPoint(ctx, delta, key)
	c.buys.add(time.Since(t0))
	c.t.close(s)
	return r, err
}

func (c *timedClient) BuyWithPriceBudget(ctx context.Context, budget float64, key string) (workload.BuyResult, error) {
	ctx, s := c.begin(ctx, "buy-budget")
	t0 := time.Now()
	r, err := c.Client.BuyWithPriceBudget(ctx, budget, key)
	c.buys.add(time.Since(t0))
	c.t.close(s)
	return r, err
}

// liveHeap is the heap in use after forced collections. The second
// one frees what sync.Pools kept in their victim caches through the
// first, which would otherwise come and go between repetitions.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
