package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/checkpoint"
	"tieredpricing/internal/core"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/histstore"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/server"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/traces"
	"tieredpricing/internal/wal"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's start; parent indexes the enclosing span (-1 for a root).
type span struct {
	name       string
	start, end int64
	parent     int32
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int32) int32 {
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.t0)), end: -1, parent: parent})
	return int32(len(t.spans) - 1)
}

// record adds a root span timed by someone else's clock reads.
func (t *tracer) record(name string, start, end time.Time) {
	t.spans = append(t.spans, span{name: name, start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0)), parent: -1})
}

func (t *tracer) end(id int32) {
	t.spans[id].end = int64(time.Since(t.t0))
}

// durs returns the durations (ns) of every span with the given name.
func (t *tracer) durs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// spanStat is one span name's totals: calls, wall and self time (the
// span minus the part of it its children cover).
type spanStat struct {
	name        string
	calls       int
	total, self float64
}

func (t *tracer) stats() []spanStat {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += float64(s.end - s.start)
		}
	}
	by := map[string]*spanStat{}
	var order []string
	for i, s := range t.spans {
		st, ok := by[s.name]
		if !ok {
			st = &spanStat{name: s.name}
			by[s.name] = st
			order = append(order, s.name)
		}
		d := float64(s.end - s.start)
		st.calls++
		st.total += d
		st.self += d - child[i]
	}
	out := make([]spanStat, len(order))
	for i, n := range order {
		out[i] = *by[n]
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d}`+"\n", s.name, s.start, s.end, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// engine is tierd's single-tenant pricing pipeline, assembled from the
// same public constructors tierd uses, on a simulated arrival clock.
type engine struct {
	window *stream.ShardedWindow
	rp     *stream.Repricer
	rv     demandfit.EndpointResolver
	cfg    stream.Config
	now    atomic.Int64 // simulated arrival clock, UnixNano
}

// newEngine builds the pipeline with tierd's reprice parallelism: tierd
// sizes its workers to the CPUs it runs on.
func newEngine(w workload, in *input, start time.Time, workers int) (*engine, error) {
	// tierd's defaults unless the workload sets -window/-slot.
	window, err := time.ParseDuration(w.flag("-window", "10m"))
	if err != nil {
		return nil, err
	}
	slot, err := time.ParseDuration(w.flag("-slot", "1m"))
	if err != nil {
		return nil, err
	}
	sw, err := stream.NewShardedWindow(traces.AggregateKey, slot, int(window/slot), 1)
	if err != nil {
		return nil, err
	}
	e := &engine{window: sw}
	e.now.Store(start.UnixNano())
	sw.SetClock(func() time.Time { return time.Unix(0, e.now.Load()) })
	strategy, err := bundling.ByName(w.flag("-strategy", "profit-weighted"))
	if err != nil {
		return nil, err
	}
	e.rv = &demandfit.Resolver{Geo: in.geo, DistanceRegions: in.meta.Dataset == "euisp"}
	e.cfg = stream.Config{Window: sw, Resolver: e.rv, Demand: econ.CED{Alpha: 1.1},
		Cost: cost.Linear{Theta: 0.2}, P0: in.meta.P0, Strategy: strategy, Tiers: 3,
		DurationSec: in.meta.DurationSec, Workers: workers}
	if e.rp, err = stream.NewRepricer(e.cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// replay feeds datagrams through decode → WAL append → window ingest,
// one root span per datagram with a child per layer call, advancing the
// arrival clock by dt per datagram.
func (e *engine) replay(t *tracer, log *wal.Log, dgrams [][]byte, dt time.Duration, pass string) (records int, err error) {
	buf := make([]netflow.Record, 0, netflow.MaxRecordsPerPacket)
	ingestSpan := "stream.ShardedWindow.IngestShardAt:" + pass
	for _, d := range dgrams {
		ts := time.Unix(0, e.now.Add(int64(dt)))
		root := t.begin(pass, -1)
		s := t.begin("netflow.DecodePacketInto", root)
		h, recs, derr := netflow.DecodePacketInto(d, buf)
		t.end(s)
		if derr != nil {
			return records, derr
		}
		s = t.begin("wal.Log.Append", root)
		err := log.Append(ts, h, recs)
		t.end(s)
		if err != nil {
			return records, err
		}
		s = t.begin(ingestSpan, root)
		e.window.IngestShardAt(0, ts, h, recs)
		t.end(s)
		t.end(root)
		records += len(recs)
	}
	return records, nil
}

// traceInputs are the datagram sequences a workload's replay ingests:
// fresh is what reaches the window for the first time (the warm trace,
// re-stamped flood cycles, probes), dup re-sends already-seen datagrams,
// steady is the pass that matches the measured phase's traffic.
type traceInputs struct {
	fresh, dup [][]byte
	freshDT    time.Duration
	dupDT      time.Duration
	steadyDup  bool
}

const floodTraceCycles = 20

func workloadInputs(w workload, in *input) traceInputs {
	var ti traceInputs
	ti.fresh = append(ti.fresh, in.warm...)
	// Arrival spacing of the ingest phase's datagrams, so the replayed
	// window spans the same slots the live one did.
	dt := time.Second / floodRate
	if w.flood {
		var buf []byte
		for c := uint32(1); c <= floodTraceCycles; c++ {
			for _, d := range in.warm {
				buf = restamp(buf, d, c)
				ti.fresh = append(ti.fresh, append([]byte(nil), buf...))
			}
		}
		last := ti.fresh[len(ti.fresh)-len(in.warm):]
		for i := 0; i < 3; i++ {
			ti.dup = append(ti.dup, last...)
		}
		ti.freshDT, ti.dupDT = dt, dt
	} else {
		reps := 3
		if w.wide {
			reps = 1
		}
		for i := 0; i < reps; i++ {
			ti.dup = append(ti.dup, in.warm...)
		}
		ti.dupDT, ti.steadyDup = dt, true
	}
	for _, p := range in.probes[:min(len(in.probes), 200)] {
		ti.fresh = append(ti.fresh, p.datagram)
	}
	return ti
}

// runTraced replays the workload's inputs in-process through each
// layer's public call, in the order tierd calls them, and returns the
// per-layer metrics. It prints the span table and the CPU ledger that
// sets the untraced run's tierd CPU against the sum of its layers.
func runTraced(w workload, in *input, e2e *e2eResult, workDir, resultsDir string, seed int64, workers int) ([]metric, error) {
	fmt.Println("  traced replay (in-process, one span per layer call):")
	t := newTracer()
	ti := workloadInputs(w, in)
	start := time.Now()
	var ms []metric
	add := func(name string, v float64, unit string) { ms = append(ms, metric{name, v, unit}) }

	// 1. UDP receive: CollectorServer on loopback into a counting sink.
	recvNs, err := traceUDPRecv(t, append(append([][]byte(nil), ti.fresh...), ti.dup...))
	if err != nil {
		return nil, err
	}
	add("netflow.udp_recv_ns_per_datagram", recvNs, "ns")

	// 2. Decode → WAL append → window ingest, traced.
	e, err := newEngine(w, in, start, workers)
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(filepath.Join(workDir, "trace-wal"), wal.Options{Sync: wal.SyncBatch})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	t0 := time.Now()
	freshRecs, err := e.replay(t, log, ti.fresh, ti.freshDT, "ingest.fresh")
	if err != nil {
		return nil, err
	}
	recs, dups, _, _ := e.window.Stats()
	dedupRatio := float64(dups) / float64(recs)
	dupRecs, err := e.replay(t, log, ti.dup, ti.dupDT, "ingest.dup")
	if err != nil {
		return nil, err
	}
	ingestWall := time.Since(t0).Seconds()
	allRecs := float64(freshRecs + dupRecs)
	decodeNs := sum(t.durs("netflow.DecodePacketInto")) / allRecs
	freshNs := sum(t.durs("stream.ShardedWindow.IngestShardAt:ingest.fresh")) / float64(freshRecs)
	dupNs := sum(t.durs("stream.ShardedWindow.IngestShardAt:ingest.dup")) / float64(dupRecs)
	walDurs := t.durs("wal.Log.Append")
	ws := log.Stats()
	add("netflow.decode_ns_per_record", decodeNs, "ns")
	add("stream.ingest_ns_per_record", freshNs, "ns")
	add("stream.ingest_dup_ns_per_record", dupNs, "ns")
	add("stream.dedup_hit_ratio", dedupRatio, "ratio")
	add("wal.append_ns_per_datagram", sum(walDurs)/float64(len(walDurs)), "ns")
	add("wal.bytes_per_record", float64(ws.Bytes)/allRecs, "B")
	add("wal.fsyncs_per_s", float64(ws.Fsyncs)/ingestWall, "1/s")

	allocs, err := ingestAllocs(w, in, ti, start, workers)
	if err != nil {
		return nil, err
	}
	add("stream.ingest_allocs_per_record", allocs, "count")

	// 3. Reprice, decomposed into its four constituent calls, then whole;
	//    each published table goes to the history store.
	store, err := histstore.Open(filepath.Join(workDir, "trace-history.db"), histstore.Options{})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	var snapMs, repriceMs []float64
	ctx := context.Background()
	var flowBuf []econ.Flow
	repriceStart := time.Now()
	for i := 0; i < 50 && (i < 3 || time.Since(repriceStart) < 2*time.Second); i++ {
		root := t.begin("reprice.parts", -1)
		s := t.begin("stream.ShardedWindow.Aggregates", root)
		aggs := e.window.Aggregates()
		t.end(s)
		s = t.begin("demandfit.BuildFlowsParallelInto", root)
		flows, _, err := demandfit.BuildFlowsParallelInto(ctx, flowBuf, aggs, e.rv, e.cfg.DurationSec, e.cfg.Workers)
		t.end(s)
		if err != nil {
			return nil, err
		}
		flowBuf = flows[:0]
		s = t.begin("core.NewMarket", root)
		market, err := core.NewMarket(flows, e.cfg.Demand, e.cfg.Cost, e.cfg.P0)
		t.end(s)
		if err != nil {
			return nil, err
		}
		s = t.begin("core.Market.Run", root)
		_, err = market.Run(e.cfg.Strategy, e.cfg.Tiers)
		t.end(s)
		if err != nil {
			return nil, err
		}
		t.end(root)
		parts := float64(t.spans[root].end - t.spans[root].start)

		s = t.begin("stream.Repricer.Reprice", -1)
		snap, err := e.rp.Reprice(ctx)
		t.end(s)
		if err != nil {
			return nil, err
		}
		whole := float64(t.spans[s].end - t.spans[s].start)
		repriceMs = append(repriceMs, whole/1e6)
		snapMs = append(snapMs, (whole-parts)/1e6)

		table, err := snap.Table.Marshal()
		if err != nil {
			return nil, err
		}
		s = t.begin("histstore.Store.Append", -1)
		err = store.Append(histstore.Entry{Tenant: "default", Epoch: snap.Epoch, At: snap.FittedAt, Table: table})
		t.end(s)
		if err != nil {
			return nil, err
		}
	}
	msOf := func(name string) float64 { return median(t.durs(name)) / 1e6 }
	add("stream.aggregates_ms", msOf("stream.ShardedWindow.Aggregates"), "ms")
	add("demandfit.resolve_ms", msOf("demandfit.BuildFlowsParallelInto"), "ms")
	add("core.fit_ms", msOf("core.NewMarket"), "ms")
	add("core.bundle_ms", msOf("core.Market.Run"), "ms")
	add("stream.snapshot_ms", median(snapMs), "ms")
	add("stream.reprice_ms", median(repriceMs), "ms")
	add("histstore.append_us", median(t.durs("histstore.Store.Append"))/1e3, "us")

	// 4. Checkpoint: export the window and write it, as tierd's loop does.
	var ckptBytes int64
	for i := 0; i < 3; i++ {
		root := t.begin("checkpoint", -1)
		s := t.begin("stream.ShardedWindow.Export", root)
		st := e.window.Export()
		t.end(s)
		s = t.begin("checkpoint.Write", root)
		path, err := checkpoint.Write(filepath.Join(workDir, "trace-ckpt"), &checkpoint.State{
			CreatedAt: time.Now(), WAL: log.Pos(), Window: st, Epoch: e.rp.Current().Epoch})
		t.end(s)
		t.end(root)
		if err != nil {
			return nil, err
		}
		if fi, err := os.Stat(path); err == nil {
			ckptBytes = fi.Size()
		}
		if i == 0 {
			b, err := json.Marshal(st)
			if err != nil {
				return nil, err
			}
			add("stream.state_bytes", float64(len(b)), "B")
		}
	}
	add("checkpoint.write_ms", msOf("checkpoint"), "ms")
	add("checkpoint.bytes", float64(ckptBytes), "B")

	// 5. Quote path: Snapshot.Quote per request class, then the HTTP
	//    handler with no socket.
	snap := e.rp.Current()
	classNs := map[string]float64{}
	for _, class := range []string{classWindow, classRIB, classMiss} {
		// Batches of 100 calls, up to 20,000 calls or 200 ms: a RIB
		// lookup over a 20,000-prefix table is far slower than a window hit.
		qs := classPairs(in, class, seed)
		name := "stream.Snapshot.Quote[" + class + "]x100"
		begin, calls, okCount := time.Now(), 0, 0
		for calls < 20000 && (calls == 0 || time.Since(begin) < 200*time.Millisecond) {
			s := t.begin(name, -1)
			for k := 0; k < 100; k++ {
				p := qs[(calls+k)%len(qs)]
				if q, ok := snap.Quote(p.src, p.dst); ok && q.Source.String() == class || !ok && class == classMiss {
					okCount++
				}
			}
			t.end(s)
			calls += 100
		}
		if okCount != calls {
			return nil, fmt.Errorf("in-process %s quotes: %d of %d answered with their class", class, okCount, calls)
		}
		classNs[class] = sum(t.durs(name)) / float64(calls)
		add("stream.quote_ns."+class, classNs[class], "ns")
	}
	hs, err := traceHandler(t, w, in, e.rp, seed)
	if err != nil {
		return nil, err
	}
	add("server.quote_handler_ns", hs.ns, "ns")
	add("server.quote_allocs", hs.allocs, "count")
	overhead := (hs.tracedNs - hs.untracedNs) / hs.untracedNs * 100
	add("trace.overhead_pct", overhead, "%")

	unattributed := printLedger(w, e2e, ledgerCosts{
		handlerNs: hs.ns, recvNs: recvNs, walNs: sum(walDurs) / float64(len(walDurs)),
		windowNs:  map[bool]float64{true: dupNs, false: freshNs}[ti.steadyDup],
		repriceMs: median(repriceMs), ckptMs: msOf("checkpoint"), histUs: median(t.durs("histstore.Store.Append")) / 1e3,
	})
	add("ledger.unattributed_share", unattributed, "ratio")

	fmt.Println("    span                                           calls    total ms     self ms")
	for _, st := range t.stats() {
		fmt.Printf("    %-45s %7d %11.3f %11.3f\n", st.name, st.calls, st.total/1e6, st.self/1e6)
	}
	fmt.Printf("    tracing overhead: handler pass traced %.1f ms, untraced %.1f ms (medians of %d), %+.2f%%\n",
		hs.tracedNs/1e6, hs.untracedNs/1e6, handlerRounds, overhead)
	path := filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-spans.jsonl", w.name, seed))
	if err := t.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("    spans: %s (%d)\n", path, len(t.spans))
	fmt.Println("  per-layer:")
	for _, m := range ms {
		fmt.Printf("    %-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
	return ms, nil
}

// ingestAllocs measures window-ingest allocations per record: the fresh
// pass, pre-decoded, into a fresh window between two MemStats reads.
func ingestAllocs(w workload, in *input, ti traceInputs, start time.Time, workers int) (float64, error) {
	e, err := newEngine(w, in, start, workers)
	if err != nil {
		return 0, err
	}
	type pkt struct {
		h    netflow.Header
		recs []netflow.Record
	}
	pkts := make([]pkt, len(ti.fresh))
	records := 0
	for i, d := range ti.fresh {
		h, recs, err := netflow.DecodePacket(d)
		if err != nil {
			return 0, err
		}
		pkts[i] = pkt{h, recs}
		records += len(recs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range pkts {
		ts := time.Unix(0, e.now.Add(int64(ti.freshDT)))
		e.window.IngestShardAt(0, ts, p.h, p.recs)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(records), nil
}

// classPairs returns request pairs of one quote class.
func classPairs(in *input, class string, seed int64) []pair {
	switch class {
	case classWindow:
		return in.pairs
	default:
		var out []pair
		for _, q := range buildMix("http://tierd", in, seed, 0.5, 0.5) {
			if q.class == class {
				src, _ := netip.ParseAddr(q.req.URL.Query().Get("src"))
				dst, _ := netip.ParseAddr(q.req.URL.Query().Get("dst"))
				out = append(out, pair{src, dst})
			}
		}
		return out
	}
}

// nullWriter is a reusable ResponseWriter that keeps nothing, so the
// handler's allocations are the handler's own.
type nullWriter struct {
	h    http.Header
	code int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(code int)        { w.code = code }

// handlerStats is what traceHandler measured.
type handlerStats struct {
	ns, allocs           float64 // per request
	tracedNs, untracedNs float64 // median wall time of one pass
}

const handlerRounds = 3

// traceHandler drives Server.Handler().ServeHTTP over the workload's
// quote mix with no socket. Each round runs the mix once traced, one
// span per request, and once untraced; the untraced passes give the
// allocation count, and the two kinds of pass's medians give the
// tracing overhead.
func traceHandler(t *tracer, w workload, in *input, rp *stream.Repricer, seed int64) (handlerStats, error) {
	var hs handlerStats
	srv, err := server.New(server.Config{Snapshots: rp, Metrics: server.NewMetrics(), MaxSnapshotAge: time.Hour})
	if err != nil {
		return hs, err
	}
	h := srv.Handler()
	mix := buildMix("http://tierd", in, seed, w.ribShare, w.missShare)
	reqs := make([]*http.Request, len(mix))
	for i, q := range mix {
		reqs[i] = httptest.NewRequest(http.MethodGet, q.req.URL.RequestURI(), nil)
	}
	const n = 20000
	rw := &nullWriter{h: http.Header{}}
	serve := func(i int) error {
		clear(rw.h)
		rw.code = http.StatusOK
		h.ServeHTTP(rw, reqs[i%len(reqs)])
		want := http.StatusOK
		if mix[i%len(mix)].class == classMiss {
			want = http.StatusNotFound
		}
		if rw.code != want {
			return fmt.Errorf("handler: %s answered %d, want %d", reqs[i%len(reqs)].URL, rw.code, want)
		}
		return nil
	}
	var traced, untraced []float64
	var before, after runtime.MemStats
	tracedPass := func() error {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s := t.begin("server.Handler.ServeHTTP", -1)
			err := serve(i)
			t.end(s)
			if err != nil {
				return err
			}
		}
		traced = append(traced, float64(time.Since(t0).Nanoseconds()))
		return nil
	}
	untracedPass := func() error {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := serve(i); err != nil {
				return err
			}
		}
		untraced = append(untraced, float64(time.Since(t0).Nanoseconds()))
		runtime.ReadMemStats(&after)
		return nil
	}
	for round := 0; round < handlerRounds; round++ {
		// Alternate which pass goes first, so neither always runs warmer.
		first, second := tracedPass, untracedPass
		if round%2 == 1 {
			first, second = untracedPass, tracedPass
		}
		if err := first(); err != nil {
			return hs, err
		}
		if err := second(); err != nil {
			return hs, err
		}
	}
	durs := t.durs("server.Handler.ServeHTTP")
	hs.ns = sum(durs) / float64(len(durs))
	hs.allocs = float64(after.Mallocs-before.Mallocs) / n
	hs.tracedNs, hs.untracedNs = median(traced), median(untraced)
	return hs, nil
}

// recvBurst is the datagrams per timed receive span: the queue it
// leaves (~300 KB of kernel buffer at ~4.5 KB per queued 1.5 KB
// datagram) fits the default 208 KB rmem_max doubled by SO_RCVBUF.
const recvBurst = 64

// gateSink counts ingested datagrams. After the last datagram of each
// burst it reports the burst's receive span and blocks, so the next
// burst waits whole in the socket queue until the driver releases it.
type gateSink struct {
	n     int
	start time.Time
	hold  chan struct{}
	done  chan [2]time.Time
}

func (g *gateSink) Ingest(netflow.Header, []netflow.Record) {
	g.n++
	if g.n%recvBurst == 0 {
		g.done <- [2]time.Time{g.start, time.Now()}
		<-g.hold
		g.start = time.Now()
	}
}

// traceUDPRecv pushes dgrams through a loopback CollectorServer and
// returns its receive cost per datagram: recvmmsg, DecodePacketInto and
// the sink call. Each burst is sent while the reader is held, then timed
// by the sink from its release to the burst's last datagram, so the
// driver's sendto calls stay outside every span.
func traceUDPRecv(t *tracer, dgrams [][]byte) (float64, error) {
	sink := &gateSink{hold: make(chan struct{}), done: make(chan [2]time.Time, 1)}
	srv, err := netflow.NewCollectorServerOpts("127.0.0.1:0", sink, netflow.ServerOptions{RcvBuf: 4 << 20})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	defer close(sink.hold) // the reader holds after the last burst
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	const bursts = 300
	name := fmt.Sprintf("netflow.CollectorServer[recv]x%d", recvBurst)
	sent := 0
	for b := 0; b <= bursts; b++ {
		for k := 0; k < recvBurst; k++ {
			if _, err := conn.Write(dgrams[sent%len(dgrams)]); err != nil {
				return 0, err
			}
			sent++
		}
		if b > 0 {
			sink.hold <- struct{}{}
		}
		select {
		case span := <-sink.done:
			if b > 0 { // the first burst is a warm-up, received as it was sent
				t.record(name, span[0], span[1])
			}
		case <-time.After(5 * time.Second):
			return 0, fmt.Errorf("udp receive: burst %d incomplete after 5s (%d sent, socket drops %d)", b, sent, srv.SocketDrops())
		}
	}
	d := t.durs(name)
	return sum(d) / float64(len(d)*recvBurst), nil
}

// ledgerCosts are the traced run's unit costs the ledger multiplies by
// the untraced run's work counts.
type ledgerCosts struct {
	handlerNs, recvNs, walNs, windowNs float64
	repriceMs, ckptMs, histUs          float64
}

// printLedger sets the untraced run's tierd CPU against the sum of its
// layers (unit cost × work done) and returns the unattributed share.
func printLedger(w workload, e2e *e2eResult, c ledgerCosts) float64 {
	cn := e2e.counters
	quotes, pkts, recs := cn["tierd_quote_requests_total"], cn["tierd_ingest_packets_total"], cn["tierd_ingest_records_total"]
	reprices, ckpts := cn["tierd_reprices_total"], cn["tierd_checkpoints_total"]
	hist := 0.0
	if w.wide {
		hist = reprices
	}
	rows := []struct {
		layer     string
		units     float64
		unitName  string
		costSecs  float64
		unitCostS string
	}{
		{"server handler (incl. Snapshot.Quote)", quotes, "quotes", c.handlerNs / 1e9, fmt.Sprintf("%.0f ns", c.handlerNs)},
		{"netflow UDP receive (incl. decode)", pkts, "datagrams", c.recvNs / 1e9, fmt.Sprintf("%.0f ns", c.recvNs)},
		{"wal append", pkts, "datagrams", c.walNs / 1e9, fmt.Sprintf("%.0f ns", c.walNs)},
		{"stream window ingest", recs, "records", c.windowNs / 1e9, fmt.Sprintf("%.0f ns", c.windowNs)},
		{"reprice (aggregates..snapshot)", reprices, "reprices", c.repriceMs / 1e3, fmt.Sprintf("%.2f ms", c.repriceMs)},
		{"checkpoint (export + write)", ckpts, "checkpoints", c.ckptMs / 1e3, fmt.Sprintf("%.2f ms", c.ckptMs)},
		{"histstore append", hist, "appends", c.histUs / 1e6, fmt.Sprintf("%.1f us", c.histUs)},
	}
	fmt.Printf("  ledger %s: tierd CPU %.3f s over %.2f s measured (untraced run)\n", w.name, e2e.cpu, e2e.elapsed)
	fmt.Println("    layer                                  work          unit cost   CPU s    share")
	attributed := 0.0
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].units*rows[i].costSecs > rows[j].units*rows[j].costSecs })
	for _, r := range rows {
		secs := r.units * r.costSecs
		attributed += secs
		fmt.Printf("    %-38s %9.0f %-9s %9s %7.3f %7.1f%%\n", r.layer, r.units, r.unitName, r.unitCostS, secs, secs/e2e.cpu*100)
	}
	un := (e2e.cpu - attributed) / e2e.cpu
	fmt.Printf("    %-38s %29s %7.3f %7.1f%%  (net/http, loopback TCP/UDP syscalls, scheduler, GC)\n",
		"unattributed", "", e2e.cpu-attributed, un*100)
	return un
}
