package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/traces"
)

// workload is one named traffic mix against a real tierd.
type workload struct {
	name, why string
	// wide selects the widePairs-prefix generated trace; otherwise tracegen euisp.
	wide bool
	// flags are the workload's tierd flags beyond the common set.
	flags []string
	// ribShare and missShare of the mix are RIB-fallback and miss quotes.
	// No trace in the repository gives tierd's real request mix, so both
	// are chosen, not measured; the run reports latency and throughput per
	// class besides the mix totals.
	ribShare, missShare float64
	// tierdAllCPUs runs tierd (and refd) on every CPU, the driver's too,
	// instead of on the CPUs the driver leaves free. reprice-wide needs
	// it: on one CPU its reprices share the CPU with quote serving, and
	// at 20,000 pairs cpu_per_quote_vs_ref spread 0.18 of its median over
	// 5 runs, against 0.12 with tierd on both CPUs.
	tierdAllCPUs bool
	// flood sends re-stamped cycles instead of duplicates (see
	// udpTraffic). Its short window ages records out, so only the other
	// workloads can compare /v1/tiers with the batch pipeline over the
	// whole input.
	flood bool
}

// flag returns the value of a tierd flag the workload sets, or def.
func (w workload) flag(name, def string) string {
	for i := 0; i+1 < len(w.flags); i++ {
		if w.flags[i] == name {
			return w.flags[i+1]
		}
	}
	return def
}

var workloads = []workload{
	{
		name:     "serve",
		why:      "closed-loop quotes on 2 connections over a 200-flow window: loads the HTTP handler and Snapshot.Quote while reprice and churn stay negligible",
		ribShare: 0.1, missShare: 0.1,
	},
	{
		name:     "ingest-flood",
		why:      "re-stamped NetFlow cycles at 120,000 records/s, every cycle's keys new: loads decode, fresh-key window ingest and dedup, and WAL append",
		flags:    []string{"-window", "1s", "-slot", "100ms"},
		ribShare: 0.1, missShare: 0.1,
		flood: true,
	},
	{
		name:         "reprice-wide",
		why:          "10,000-prefix window repriced with the optimal DP every 500 ms: loads aggregate, resolve, fit, bundle and snapshot build, which set freshness",
		wide:         true,
		flags:        []string{"-strategy", "optimal", "-tiers", "3"},
		tierdAllCPUs: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Run geometry shared by every workload.
const (
	setups  = 5                      // tierd start-ups per run; setup_s is their median
	reprice = 500 * time.Millisecond // tierd -reprice
	// slice is one turn of tierd or refd in the quote and ingest phases
	// (see measure). It equals the reprice interval, so each slice holds
	// one reprice tick whatever the tick's phase; with slices half the
	// interval long, every tick of a run falls in tierd's slices or every
	// tick in refd's.
	slice      = reprice
	probeBands = 10 // freshness probes per reprice interval (see probeSchedule)
	probeGap   = reprice / probeBands
	probeTail  = time.Second      // fresh phase left after the last probe, to detect it
	pollGap    = time.Millisecond // prober re-poll interval for a pending probe
	churnRate  = 200              // duplicate datagrams/s on serve and reprice-wide outside the ingest phase
	// widePairs is reprice-wide's window. At 20,000 a reprice took ~40%
	// of tierd's CPU in the quote and ingest phases and its cost varied by
	// a third between runs, which the refd ratios cannot cancel.
	widePairs = 10000
	drainWait = 10 * time.Second // bound on waiting for the last probes after load stops
	// floodRate is the flood's offered load, 120,000 records/s: on a
	// shared 2-vCPU Xeon VM tierd's capacity ran from ~160k to ~280k
	// records/s as the host's load changed, and a flood at capacity
	// amplified that into 25-40% run-to-run spreads on every metric.
	// Below capacity the accepted rate holds and the cost of ingest shows
	// in CPU per record; ingest_records_per_s then only checks that tierd
	// keeps up with the offered rate.
	floodRate = 4000 // datagrams/s of 30 records
	// floodQuoteRate is the flood in the quote phase: enough re-stamped
	// cycles (one per 0.7 s) to keep every pair in the 1 s window. Quote
	// latency with the full flood underneath was bimodal between runs
	// (p99 2.3 ms or 4.5-7 ms, qps spread 36%).
	floodQuoteRate = 400
)

// phases gives the lengths of a run's ingest, fresh and quote phases
// (see measure): at 30 s, 12 s of ingest, 6 s for 100 probes and 12 s
// of quotes. The ingest and quote phases are whole pairs of slices; the
// *_vs_ref metrics' spread between runs shrinks as their slice count
// grows.
func phases(seconds int) (ingest, fresh, quote time.Duration) {
	total, pair := time.Duration(seconds)*time.Second, 2*slice
	ingest = max(pair, total*2/5/pair*pair)
	quote = max(pair, (total-ingest-total/5)/pair*pair)
	return ingest, total - ingest - quote, quote
}

// probesPerRun is how many probes a run of the given length sends, all
// in its fresh phase: a multiple of probeBands, at least probeBands.
func probesPerRun(seconds int) int {
	_, fresh, _ := phases(seconds)
	return max(probeBands, int((fresh-probeTail)/probeGap)/probeBands*probeBands)
}

// tierdArgs is the full tierd command line of a workload run.
func (w workload) tierdArgs(in *input, dataDir string) []string {
	args := []string{
		"-trace", in.dir, "-stdin", "-udp", "127.0.0.1:0", "-listen", "127.0.0.1:0",
		"-data-dir", dataDir, "-wal-sync", "batch", "-reprice", reprice.String(),
		"-udp-rcvbuf", "4194304",
	}
	args = append(args, w.flags...)
	if w.wide {
		args = append(args, "-history-store", filepath.Join(dataDir, "history.db"))
	}
	return args
}

// e2eResult is what one untraced workload run measured.
type e2eResult struct {
	metrics   []metric
	attempted int
	failed    int
	checks    []check
	samples   map[string]int
	ungated   []metric // printed and stored, not in the summary line
	// Deltas over the measured window, for the ledger.
	elapsed   float64
	cpu       float64
	counters  map[string]float64
	tierdArgs []string
}

// check is one named correctness verdict.
type check struct {
	name string
	ok   bool
	note string
}

type e2eRun struct {
	place   *cpuPlacement
	w       workload
	in      *input
	binDir  string
	workDir string
	seed    int64
	seconds int
	log     func(format string, args ...any)
}

func (r *e2eRun) run() (*e2eResult, error) {
	res := &e2eResult{samples: map[string]int{}}
	var setupS []float64
	var d *tierd
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	for k := 0; k < setups; k++ {
		dataDir := filepath.Join(r.workDir, fmt.Sprintf("data-%d", k))
		args := r.w.tierdArgs(r.in, dataDir)
		res.tierdArgs = args
		t0 := time.Now()
		var err error
		d, err = startTierd(r.place, r.w.tierdAllCPUs, filepath.Join(r.binDir, "tierd"), args, r.in.warmPath, filepath.Join(r.workDir, fmt.Sprintf("tierd-%d.log", k)))
		if err != nil {
			return nil, err
		}
		if err := r.waitReady(d); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if k < setups-1 {
			if err := d.stop(30 * time.Second); err != nil {
				return nil, err
			}
			d = nil
		}
	}
	r.log("setup: %d start-ups, %s s each", setups, fmtList(setupS, "%.4f"))

	ref, err := startTierd(r.place, r.w.tierdAllCPUs, filepath.Join(r.binDir, "refd"), []string{"-dir", r.workDir}, "", filepath.Join(r.workDir, "refd.log"))
	if err != nil {
		return nil, err
	}
	defer func() {
		ref.kill()
		ref.log.Close()
	}()
	if err := r.measure(d, ref, res); err != nil {
		return nil, err
	}
	res.metrics = append([]metric{{"setup_s", median(setupS), "s"}}, res.metrics...)
	res.samples["setup_s"] = len(setupS)
	err = d.stop(30 * time.Second)
	d = nil
	if err != nil {
		return nil, err
	}
	// Each end-of-run check is one more operation that can fail.
	res.attempted += len(res.checks)
	for _, c := range res.checks {
		if !c.ok {
			res.failed++
		}
	}
	return res, nil
}

// waitReady blocks until the setup_s condition holds: /v1/tiers
// reports the trace's flow count and every pair of the quote set
// answers 200 from the window.
func (r *e2eRun) waitReady(d *tierd) error {
	deadline := time.Now().Add(120 * time.Second)
	c := newConn()
	defer c.CloseIdleConnections()
	for {
		var tr struct {
			Table struct {
				Flows int `json:"flows"`
			} `json:"table"`
		}
		if code, _ := getJSON(c, d.base+"/v1/tiers", &tr); code == http.StatusOK && tr.Table.Flows == r.in.meta.Flows {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tierd not priced within 120s; log: %s", tail(d.log.Name()))
		}
		select {
		case <-d.exited:
			return fmt.Errorf("tierd exited during warm-up; log: %s", tail(d.log.Name()))
		case <-time.After(time.Millisecond):
		}
	}
	// Sweep the quote set on both connections; retry stragglers.
	c.CloseIdleConnections()
	todo := r.in.pairs
	for len(todo) > 0 {
		var mu sync.Mutex
		var left []pair
		var wg sync.WaitGroup
		half := (len(todo) + 1) / 2
		for _, part := range [][]pair{todo[:half], todo[half:]} {
			wg.Add(1)
			go func(part []pair) {
				defer wg.Done()
				cl := newClient()
				defer cl.c.CloseIdleConnections()
				for _, p := range part {
					a, err := cl.do(quoteRequest(d.base, p, classWindow))
					if err != nil || a.status != http.StatusOK || a.Source != classWindow {
						mu.Lock()
						left = append(left, p)
						mu.Unlock()
					}
				}
			}(part)
		}
		wg.Wait()
		todo = left
		if len(todo) > 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("%d quote-set pairs still unpriced after 120s", len(todo))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

func getJSON(c *http.Client, url string, v any) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// sample is tierd's CPU time and /metrics counters at one instant.
type sample struct {
	at  time.Time
	cpu float64
	m   map[string]float64
}

func (d *tierd) sample(c *http.Client) (sample, error) {
	cpu, err := cpuSeconds(d.pid())
	if err != nil {
		return sample{}, err
	}
	m, err := scrape(c, d.base)
	if err != nil {
		return sample{}, err
	}
	return sample{time.Now(), cpu, m}, nil
}

// measure runs the workload against d for the run length and checks its
// outputs. The workload's UDP traffic (churn or flood) runs throughout;
// the run is split in three phases so each cost divides by its own work:
//
//   - quote phase: closed-loop quotes back to back on both connections —
//     quote_qps_vs_ref, quote_p50_vs_ref, cpu_per_quote_vs_ref;
//   - ingest phase: the UDP traffic alone, no HTTP load —
//     ingest_records_per_s, cpu_per_record_vs_ref;
//   - fresh phase: the freshness probes and their prober on connection B —
//     fresh_p50_ms, fresh_p90_ms.
//
// In the quote and ingest phases the load goes to tierd and to ref (refd,
// on tierd's CPUs) in turns of one slice, and each *_vs_ref metric is
// tierd's figure divided by refd's over the same phase. The shared host's
// speed drifts (a fixed CPU loop took 101-156 µs from one 5 s window to
// the next), which spread tierd's own figures (quote_qps, quote_p50_us,
// server_cpu_us_per_quote, server_cpu_ns_per_record, still printed) by
// 0.30-0.35 of their median between runs; refd, built from the standard
// library only, slows with the host but not with the repository's code.
//
// The quote phase comes first, so neither the prober's last polls nor the
// after-effects of ingest-flood's full flood fall into it. The prober
// re-polls a pending probe every millisecond, and a probe is pending
// almost all the time, so its quotes would add ~1k quotes/s of handler
// CPU to any CPU-per-record figure taken with it running. Back-to-back
// quoting keeps both vCPUs busy: paced quotes on a shared 2-vCPU VM
// measured idle-vCPU wake-ups, whose tail swung p99 by 2-3x between runs.
func (r *e2eRun) measure(d, ref *tierd, res *e2eResult) error {
	w, in := r.w, r.in
	mix := buildMix(d.base, in, r.seed, w.ribShare, w.missShare)
	refMix := buildMix(ref.base, in, r.seed, w.ribShare, w.missShare)
	a, b, aRef, bRef := newClient(), newClient(), newClient(), newClient()
	for _, cl := range []*client{a, b, aRef, bRef} {
		defer cl.c.CloseIdleConnections()
	}
	snd, err := newUDPSender(d.udpAddr)
	if err != nil {
		return err
	}
	defer snd.conn.Close()
	refSnd, err := newUDPSender(ref.udpAddr)
	if err != nil {
		return err
	}
	defer refSnd.conn.Close()
	pr := &prober{}
	snd.prober, snd.base, snd.probes = pr, d.base, in.probes

	s0, err := d.sample(a.c)
	if err != nil {
		return err
	}
	ingestLen, freshLen, quoteLen := phases(r.seconds)
	ingestAt := s0.at.Add(quoteLen)
	freshAt := ingestAt.Add(ingestLen)
	end := freshAt.Add(freshLen)
	snd.due = probeSchedule(r.seed, freshAt, probesPerRun(r.seconds), probeGap)
	quoteAlt := alternation{s0.at, slice}
	for _, cl := range []*client{a, b, aRef, bRef} {
		cl.alt = quoteAlt
	}
	route := &udpRoute{tierd: snd, ref: refSnd, alt: alternation{ingestAt, slice}, to: freshAt}

	var wg sync.WaitGroup
	var s1, s2, s3 sample
	var quoteCPU, ingestCPU []float64
	var sendErr, sampleErr, cpuErr error
	wg.Add(4)
	go func() {
		defer wg.Done()
		sendErr = r.udpTraffic(route, [3]time.Time{ingestAt, freshAt, end})
	}()
	go func() {
		defer wg.Done()
		if quoteCPU, cpuErr = sliceCPU(quoteAlt, ingestAt, d.pid(), ref.pid()); cpuErr == nil {
			ingestCPU, cpuErr = sliceCPU(route.alt, freshAt, d.pid(), ref.pid())
		}
	}()
	go func() {
		defer wg.Done()
		// Start half a cycle away from connection B's position in the mix.
		for i := len(mix) / 2; time.Now().Before(ingestAt); i++ {
			altQuote(a, aRef, mix, refMix, i)
		}
		if s1, sampleErr = d.sample(a.c); sampleErr != nil {
			return
		}
		time.Sleep(time.Until(freshAt))
		if s2, sampleErr = d.sample(a.c); sampleErr != nil {
			return
		}
		time.Sleep(time.Until(end))
		s3, sampleErr = d.sample(a.c)
	}()
	go func() {
		defer wg.Done()
		r.connB(b, bRef, pr, mix, refMix, ingestAt, end)
	}()
	wg.Wait()
	for _, err := range []error{sampleErr, cpuErr} {
		if err != nil {
			return err
		}
	}
	if sendErr != nil {
		return fmt.Errorf("udp sender: %w", sendErr)
	}
	rss, err := peakRSSMiB(d.pid())
	if err != nil {
		return err
	}

	res.elapsed, res.cpu = s3.at.Sub(s0.at).Seconds(), s3.cpu-s0.cpu
	res.counters = map[string]float64{}
	for _, name := range []string{"tierd_quote_requests_total", "tierd_ingest_packets_total",
		"tierd_ingest_records_total", "tierd_reprices_total", "tierd_checkpoints_total"} {
		res.counters[name] = s3.m[name] - s0.m[name]
	}
	var all []float64
	for _, l := range [][]float64{a.lat[classWindow], b.lat[classWindow], a.lat[classRIB], b.lat[classRIB], a.lat[classMiss], b.lat[classMiss]} {
		all = append(all, l...)
	}
	lat := sortedCopy(all)
	refLat := sortedCopy(append(append([]float64(nil), aRef.lat[classRef]...), bRef.lat[classRef]...))
	var fresh []float64
	probeFails := 0
	var probeNote string
	for _, p := range pr.all {
		if p.fresh > 0 {
			fresh = append(fresh, float64(p.fresh.Nanoseconds())/1e6)
		} else {
			probeFails++
			if probeNote == "" {
				probeNote = p.failNote
				if probeNote == "" {
					probeNote = fmt.Sprintf("never quotable after %d polls", p.polls)
				}
			}
		}
	}
	sort.Float64s(fresh)

	// Quotes completed per slice: tierd's in the even slices, refd's in
	// the odd ones. Throughput is the median of per-slice ratios (see
	// vsRef); CPU per unit of work is each side's total CPU over its total
	// work, whose spread between runs was the same or smaller.
	counts := make([]float64, len(quoteCPU))
	for i := range counts {
		for _, cl := range []*client{a, b, aRef, bRef} {
			if i < len(cl.perSlice) {
				counts[i] += float64(cl.perSlice[i])
			}
		}
	}
	var tierdSlices []float64
	for i := 0; i < len(counts); i += 2 {
		tierdSlices = append(tierdSlices, counts[i]/slice.Seconds())
	}
	quotes, refQuotes := sumEvery(counts)
	records, refRecords := sumEvery(route.records)
	qc, rqc := sumEvery(quoteCPU)
	ic, ric := sumEvery(ingestCPU)
	cpuPerQuote, refCPUPerQuote := qc/quotes, rqc/refQuotes
	cpuPerRecord, refCPUPerRecord := ic/records, ric/refRecords
	accepted := s2.m["tierd_ingest_records_total"] - s1.m["tierd_ingest_records_total"]
	res.metrics = []metric{
		{"quote_qps_vs_ref", vsRef(counts), "ratio"},
		{"quote_p50_vs_ref", percentile(lat, 0.50) / percentile(refLat, 0.50), "ratio"},
		{"cpu_per_quote_vs_ref", cpuPerQuote / refCPUPerQuote, "ratio"},
		// tierd has the traffic in half of the ingest phase.
		{"ingest_records_per_s", accepted / (s2.at.Sub(s1.at).Seconds() / 2), "1/s"},
		{"cpu_per_record_vs_ref", cpuPerRecord / refCPUPerRecord, "ratio"},
		{"fresh_p50_ms", percentile(fresh, 0.50), "ms"},
		{"fresh_p90_ms", percentile(fresh, 0.90), "ms"},
		{"max_rss_mb", rss, "MiB"},
	}
	// tierd's own figures are printed and stored but not in the summary
	// line: they follow the host's speed (see above). quote_p99_us spread
	// 0.15-0.37 of its median between runs even before that. The
	// per-class figures sit beside them, so a change to one class can be
	// read without the chosen mix weighting it.
	quoteSecs := quoteLen.Seconds() / 2
	res.ungated = []metric{
		{"quote_qps", median(tierdSlices), "1/s"},
		{"quote_p50_us", percentile(lat, 0.50), "us"},
		{"quote_p99_us", percentile(lat, 0.99), "us"},
		{"server_cpu_us_per_quote", cpuPerQuote * 1e6, "us"},
		{"server_cpu_ns_per_record", cpuPerRecord * 1e9, "ns"},
		{"refd.quote_p50_us", percentile(refLat, 0.50), "us"},
		{"refd.cpu_us_per_quote", refCPUPerQuote * 1e6, "us"},
		{"refd.cpu_ns_per_record", refCPUPerRecord * 1e9, "ns"},
	}
	for _, class := range []string{classWindow, classRIB, classMiss} {
		cl := sortedCopy(append(append([]float64(nil), a.lat[class]...), b.lat[class]...))
		if len(cl) == 0 {
			continue
		}
		res.ungated = append(res.ungated,
			metric{"quote_qps." + class, float64(len(cl)) / quoteSecs, "1/s"},
			metric{"quote_p50_us." + class, percentile(cl, 0.50), "us"})
		res.samples["quote_qps."+class] = len(cl)
		res.samples["quote_p50_us."+class] = len(cl)
	}
	r.log("wal: %.0f fsyncs/s, fsync p50 %.2f ms p99 %.2f ms (tierd /metrics)",
		(s3.m["tierd_wal_fsyncs_total"]-s0.m["tierd_wal_fsyncs_total"])/res.elapsed,
		s3.m["tierd_wal_fsync_seconds{quantile=\"0.5\"}"]*1e3, s3.m["tierd_wal_fsync_seconds{quantile=\"0.99\"}"]*1e3)
	for _, name := range []string{"quote_qps_vs_ref", "quote_qps"} {
		res.samples[name] = len(tierdSlices)
	}
	for _, name := range []string{"quote_p50_vs_ref", "quote_p50_us", "quote_p99_us"} {
		res.samples[name] = len(lat)
	}
	res.samples["refd.quote_p50_us"] = len(refLat)
	for _, name := range []string{"cpu_per_quote_vs_ref", "server_cpu_us_per_quote"} {
		res.samples[name] = int(quotes)
	}
	res.samples["refd.cpu_us_per_quote"] = int(refQuotes)
	for _, name := range []string{"cpu_per_record_vs_ref", "server_cpu_ns_per_record"} {
		res.samples[name] = int(records)
	}
	res.samples["refd.cpu_ns_per_record"] = int(refRecords)
	res.samples["ingest_records_per_s"] = int(accepted)
	res.samples["fresh_p50_ms"] = len(fresh)
	res.samples["fresh_p90_ms"] = len(fresh)
	res.samples["max_rss_mb"] = 1

	res.attempted = a.attempts + b.attempts + len(pr.all) + snd.sent
	res.failed = a.failures + b.failures + probeFails
	note := a.failNote
	if note == "" {
		note = b.failNote
	}
	refNote := aRef.failNote
	if refNote == "" {
		refNote = bRef.failNote
	}
	res.checks = append(res.checks,
		check{"quotes answered with their class", a.failures+b.failures == 0, note},
		check{"refd answered every quote 200", aRef.failures+bRef.failures == 0 && len(refLat) > 0, refNote},
		check{"every probe became quotable", probeFails == 0 && len(pr.all) > 0, probeNote})
	return r.verify(d, a, b, snd, res)
}

// alternation splits a phase into slices that go to tierd (even slices)
// and refd (odd slices) in turn.
type alternation struct {
	start time.Time
	slice time.Duration
}

func (al alternation) index(t time.Time) int { return int(t.Sub(al.start) / al.slice) }

func (al alternation) ref(t time.Time) bool { return al.index(t)%2 == 1 }

// altQuote sends the i-th quote of the mix to tierd on cl, or in refd's
// slices the i-th of refMix to refd on refCl.
func altQuote(cl, refCl *client, mix, refMix []quoteReq, i int) {
	if cl.alt.ref(time.Now()) {
		refCl.refQuote(refMix[i%len(refMix)])
	} else {
		cl.mixQuote(mix[i%len(mix)])
	}
}

// sliceCPU samples the CPU time of tierd and refd at every slice boundary
// of al until end, and returns the CPU each slice took of the process
// whose turn it was: tierd in the even slices, refd in the odd ones.
func sliceCPU(al alternation, end time.Time, tierdPid, refPid int) ([]float64, error) {
	read := func() (c [2]float64, err error) {
		for i, pid := range [2]int{tierdPid, refPid} {
			if c[i], err = cpuSeconds(pid); err != nil {
				return c, err
			}
		}
		return c, nil
	}
	prev, err := read()
	if err != nil {
		return nil, err
	}
	var out []float64
	for k := 1; ; k++ {
		at := al.start.Add(time.Duration(k) * al.slice)
		if end.Before(at) {
			at = end
		}
		time.Sleep(time.Until(at))
		cur, err := read()
		if err != nil {
			return nil, err
		}
		who := (k - 1) % 2
		out = append(out, cur[who]-prev[who])
		prev = cur
		if !at.Before(end) {
			return out, nil
		}
	}
}

// vsRef sets the value of each tierd slice (even index) against the mean
// of the refd slices either side and returns the median of those ratios:
// a stall of a few hundred milliseconds (a host preemption, a GC pause)
// moves one ratio, not the figure.
func vsRef(perSlice []float64) float64 {
	var ratios []float64
	for i := 0; i+1 < len(perSlice); i += 2 {
		nb := []float64{perSlice[i+1]}
		if i > 0 {
			nb = append(nb, perSlice[i-1])
		}
		ratios = append(ratios, perSlice[i]/mean(nb))
	}
	return median(ratios)
}

// sumEvery returns the sums of xs over the even and over the odd indexes.
func sumEvery(xs []float64) (even, odd float64) {
	for i, x := range xs {
		if i%2 == 0 {
			even += x
		} else {
			odd += x
		}
	}
	return even, odd
}

// udpRoute sends the workload's datagrams to tierd, except in refd's
// slices of the ingest phase, and counts the records each got there.
type udpRoute struct {
	tierd, ref *udpSender
	alt        alternation // starts with the ingest phase
	to         time.Time   // end of the ingest phase
	records    []float64   // records sent in each slice of the ingest phase
}

func (u *udpRoute) send(now time.Time, d []byte) error {
	s := u.tierd
	if !now.Before(u.alt.start) && now.Before(u.to) {
		i := u.alt.index(now)
		if i%2 == 1 {
			s = u.ref
		}
		for len(u.records) <= i {
			u.records = append(u.records, 0)
		}
		u.records[i] += float64(binary.BigEndian.Uint16(d[2:4]))
	}
	return s.send(d)
}

// connB runs connection B: mix quotes until quoteEnd, then the freshness
// prober. After end it keeps polling until every probe sent is quotable
// or drainWait passes.
func (r *e2eRun) connB(cl, refCl *client, pr *prober, mix, refMix []quoteReq, quoteEnd, end time.Time) {
	var nextPoll time.Time
	for i := 0; ; {
		now := time.Now()
		pending := pr.oldest()
		if pending != nil && !now.Before(nextPoll) {
			if !pr.poll(cl, pending) {
				nextPoll = time.Now().Add(pollGap)
			}
			continue
		}
		if !now.Before(end.Add(drainWait)) || (pending == nil && !now.Before(end)) {
			return
		}
		if now.Before(quoteEnd) {
			altQuote(cl, refCl, mix, refMix, i)
			i++
			continue
		}
		wake := now.Add(pollGap)
		if pending != nil && nextPoll.Before(wake) {
			wake = nextPoll
		}
		time.Sleep(wake.Sub(now))
	}
}

// pace sends the datagrams next returns at rate datagrams/s until the
// deadline, topping up every millisecond to the count due since it
// started, so a late wake-up is caught up and the average rate holds.
// Probes go out as they fall due.
func (r *e2eRun) pace(u *udpRoute, rate float64, deadline time.Time, next func() []byte) error {
	start, sent := time.Now(), 0
	for {
		now := time.Now()
		if !now.Before(deadline) {
			return nil
		}
		if err := u.tierd.sendDueProbes(now); err != nil {
			return err
		}
		for due := int(now.Sub(start).Seconds() * rate); sent < due; sent++ {
			if err := u.send(now, next()); err != nil {
				return err
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// udpTraffic sends the workload's datagrams through the quote, ingest
// and fresh phases, which end at the three deadlines. ingest-flood sends
// re-stamped warm cycles (every cycle's keys new); the others re-send the
// warm datagrams (all duplicates, so the window's contents do not
// change). Both run at floodRate in the ingest phase. Otherwise the flood
// keeps every pair in its 1 s window and the churn stays light.
func (r *e2eRun) udpTraffic(u *udpRoute, deadlines [3]time.Time) error {
	warm := r.in.warm
	n := 0
	next := func() []byte {
		d := warm[n%len(warm)]
		n++
		return d
	}
	rates := [3]float64{churnRate, floodRate, churnRate}
	if r.w.flood {
		var buf []byte
		next = func() []byte {
			buf = restamp(buf, warm[n%len(warm)], uint32(1+n/len(warm)))
			n++
			return buf
		}
		rates = [3]float64{floodQuoteRate, floodRate, floodRate}
	}
	for k, deadline := range deadlines {
		if err := r.pace(u, rates[k], deadline, next); err != nil {
			return err
		}
	}
	return nil
}

// verify runs the end-of-run correctness checks.
func (r *e2eRun) verify(d *tierd, a, b *client, s *udpSender, res *e2eResult) error {
	// Datagram conservation once the socket queue is empty.
	var m map[string]float64
	deadline := time.Now().Add(30 * time.Second)
	for {
		q, err := rxQueueBytes(d.udpPort)
		if err != nil {
			return err
		}
		if m, err = scrape(a.c, d.base); err != nil {
			return err
		}
		got := m["tierd_ingest_packets_total"] + m["tierd_ingest_socket_drops_total"]
		if q == 0 && int(got) >= s.sent {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	recv, drops, bad := int(m["tierd_ingest_packets_total"]), int(m["tierd_ingest_socket_drops_total"]), int(m["tierd_ingest_bad_packets_total"])
	res.failed += bad
	res.checks = append(res.checks,
		check{"datagrams conserved (sent = received + socket drops)", recv+drops == s.sent,
			fmt.Sprintf("sent %d, received %d, socket drops %d", s.sent, recv, drops)},
		check{"no bad packets", bad == 0, fmt.Sprintf("%d bad packets", bad)})
	res.samples["socket_drops"] = drops

	// Every priced answer matches its epoch's tier table.
	var hist struct {
		Entries []struct {
			Epoch int64           `json:"epoch"`
			Table json.RawMessage `json:"table"`
		} `json:"entries"`
	}
	if _, err := getJSON(a.c, d.base+"/v1/history?limit=1000", &hist); err != nil {
		return err
	}
	prices := map[int64][]float64{}
	for _, e := range hist.Entries {
		var t stream.TierTable
		if err := json.Unmarshal(e.Table, &t); err != nil {
			return err
		}
		for _, q := range t.Tiers {
			prices[e.Epoch] = append(prices[e.Epoch], q.Price)
		}
	}
	bad, note := 0, ""
	for _, cl := range []*client{a, b} {
		for k, n := range cl.prices {
			ps, ok := prices[k.epoch]
			if !ok || k.tier < 0 || k.tier >= len(ps) || math.Float64bits(ps[k.tier]) != k.price {
				bad += n
				if note == "" {
					note = fmt.Sprintf("epoch %d tier %d price %v not in /v1/history", k.epoch, k.tier, math.Float64frombits(k.price))
				}
			}
		}
	}
	res.failed += bad
	res.checks = append(res.checks, check{"quoted prices equal their epoch's /v1/tiers table", bad == 0, note})

	if !r.w.flood {
		ok, note, err := r.tableMatchesBatch(a.c, d.base, s.next)
		if err != nil {
			return err
		}
		res.checks = append(res.checks, check{"/v1/tiers byte-equal to stream.BatchTable over the same input", ok, note})
	}
	return nil
}

// tableMatchesBatch compares the served table with the batch pipeline
// run over the warm stream plus the probes sent (the churn is
// duplicates, which the window de-duplicates away).
func (r *e2eRun) tableMatchesBatch(c *http.Client, base string, probesSent int) (bool, string, error) {
	in := r.in
	col := netflow.NewCollector(traces.AggregateKey)
	var dgrams [][]byte
	dgrams = append(dgrams, in.warm...)
	for _, p := range in.probes[:probesSent] {
		dgrams = append(dgrams, p.datagram)
	}
	for _, d := range dgrams {
		h, recs, err := netflow.DecodePacket(d)
		if err != nil {
			return false, "", err
		}
		col.Ingest(h, recs)
	}
	want, err := batchTable(in, col.Aggregates(), r.w.flag("-strategy", "profit-weighted"))
	if err != nil {
		return false, "", err
	}
	var tr struct {
		Table json.RawMessage `json:"table"`
	}
	if _, err := getJSON(c, base+"/v1/tiers", &tr); err != nil {
		return false, "", err
	}
	if !bytes.Equal(tr.Table, want) {
		return false, fmt.Sprintf("served %.200s… batch %.200s…", tr.Table, want), nil
	}
	return true, "", nil
}

// batchTable is the offline reference: the batch pipeline's flows and
// market fit under tierd's defaults (CED α=1.1, linear cost θ=0.2,
// 3 tiers, the trace's blended rate and capture duration).
func batchTable(in *input, aggs []netflow.Aggregate, strategy string) ([]byte, error) {
	rv := &demandfit.Resolver{Geo: in.geo, DistanceRegions: in.meta.Dataset == "euisp"}
	flows, _, err := demandfit.BuildFlows(aggs, rv, in.meta.DurationSec)
	if err != nil {
		return nil, err
	}
	st, err := bundling.ByName(strategy)
	if err != nil {
		return nil, err
	}
	t, err := stream.BatchTable(flows, econ.CED{Alpha: 1.1}, cost.Linear{Theta: 0.2}, in.meta.P0, st, 3)
	if err != nil {
		return nil, err
	}
	return t.Marshal()
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, ", ")
}
