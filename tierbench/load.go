package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/netip"
	"sort"
	"sync"
	"time"
)

// Quote classes: which structure must answer a request.
const (
	classWindow = "window" // exact window bucket
	classRIB    = "rib"    // unknown source, known destination: RIB longest-prefix match
	classMiss   = "miss"   // destination outside every prefix: 404
	classRef    = "ref"    // any quote to refd
)

// quoteReq is one prepared /v1/quote request and the class it must get.
type quoteReq struct {
	req   *http.Request
	class string
}

// newConn returns a client that holds exactly one keep-alive
// connection: the driver's connection budget is two, one per client.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
			DisableCompression: true, IdleConnTimeout: time.Minute,
		},
		Timeout: 10 * time.Second,
	}
}

func quoteRequest(base string, p pair, class string) quoteReq {
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/quote?src=%s&dst=%s", base, p.src, p.dst), nil)
	if err != nil {
		panic(err) // addresses and base are well-formed by construction
	}
	return quoteReq{req: req, class: class}
}

// buildMix lays out the closed-loop quote sequence: every pair of the
// quote set once per cycle, in a seeded order, with ribShare of the
// requests replaced by RIB-fallback quotes (a source in no PoP block,
// a known destination) and missShare by true misses (a TEST-NET
// destination no prefix covers).
func buildMix(base string, in *input, seed int64, ribShare, missShare float64) []quoteReq {
	r := rand.New(rand.NewSource(seed ^ 0x6d6978))
	order := r.Perm(len(in.pairs))
	unknownSrc := netip.MustParseAddr("172.31.255.1")
	var mix []quoteReq
	for _, i := range order {
		x := r.Float64()
		switch {
		case x < ribShare:
			mix = append(mix, quoteRequest(base, pair{unknownSrc, in.dsts[r.Intn(len(in.dsts))]}, classRIB))
		case x < ribShare+missShare:
			miss := netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + r.Intn(254))})
			mix = append(mix, quoteRequest(base, pair{in.pairs[i].src, miss}, classMiss))
		default:
			mix = append(mix, quoteRequest(base, in.pairs[i], classWindow))
		}
	}
	return mix
}

// answer is a decoded quote response.
type answer struct {
	status int
	Tier   int     `json:"tier"`
	Price  float64 `json:"price_usd_per_mbps_month"`
	Source string  `json:"source"`
	Epoch  int64   `json:"epoch"`
}

// priceKey is one distinct (epoch, tier, price) a quote carried; the
// verifier checks each against the tier table of that epoch.
type priceKey struct {
	epoch int64
	tier  int
	price uint64 // math.Float64bits
}

// client is one connection's worth of closed-loop load.
type client struct {
	c      *http.Client
	buf    bytes.Buffer
	prices map[priceKey]int

	lat map[string][]float64 // µs by quote class, mix quotes only
	// perSlice counts mix quotes completed, by the slice of alt they
	// were sent in.
	alt      alternation
	perSlice []int
	attempts int
	failures int
	failNote string
}

func newClient() *client {
	return &client{c: newConn(), prices: map[priceKey]int{}, lat: map[string][]float64{}}
}

// do sends one quote and decodes the answer.
func (cl *client) do(q quoteReq) (answer, error) {
	resp, err := cl.c.Do(q.req)
	if err != nil {
		return answer{}, err
	}
	cl.buf.Reset()
	_, err = cl.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return answer{}, err
	}
	a := answer{status: resp.StatusCode}
	if a.status == http.StatusOK {
		if err := json.Unmarshal(cl.buf.Bytes(), &a); err != nil {
			return answer{}, fmt.Errorf("decoding quote: %w", err)
		}
	}
	return a, nil
}

// check reports whether a has the class q expects, recording the price
// of every priced answer for the per-epoch verification.
func (cl *client) check(q quoteReq, a answer) bool {
	switch q.class {
	case classMiss:
		return a.status == http.StatusNotFound
	default:
		if a.status != http.StatusOK || a.Source != q.class {
			return false
		}
		cl.prices[priceKey{a.Epoch, a.Tier, math.Float64bits(a.Price)}]++
		return true
	}
}

func (cl *client) fail(format string, args ...any) {
	cl.failures++
	if cl.failNote == "" {
		cl.failNote = fmt.Sprintf(format, args...)
	}
}

// mixQuote runs one timed closed-loop quote from the mix.
func (cl *client) mixQuote(q quoteReq) {
	cl.attempts++
	t0 := time.Now()
	a, err := cl.do(q)
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	switch {
	case err != nil:
		cl.fail("quote %s: %v", q.req.URL.RawQuery, err)
	case !cl.check(q, a):
		cl.fail("quote %s: status %d source %q, want class %s", q.req.URL.RawQuery, a.status, a.Source, q.class)
	default:
		cl.done(q.class, t0, us)
	}
}

// refQuote runs one timed closed-loop quote against refd, which answers
// every well-formed request 200.
func (cl *client) refQuote(q quoteReq) {
	cl.attempts++
	t0 := time.Now()
	a, err := cl.do(q)
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	switch {
	case err != nil:
		cl.fail("refd quote %s: %v", q.req.URL.RawQuery, err)
	case a.status != http.StatusOK:
		cl.fail("refd quote %s: status %d", q.req.URL.RawQuery, a.status)
	default:
		cl.done(classRef, t0, us)
	}
}

// done records a completed quote sent at t0 that took us µs.
func (cl *client) done(class string, t0 time.Time, us float64) {
	cl.lat[class] = append(cl.lat[class], us)
	i := cl.alt.index(t0)
	for len(cl.perSlice) <= i {
		cl.perSlice = append(cl.perSlice, 0)
	}
	cl.perSlice[i]++
}

// probeRec tracks one freshness probe from send to first 200.
type probeRec struct {
	q        quoteReq
	sent     time.Time
	fresh    time.Duration // send → first 200; 0 until detected
	polls    int
	failNote string
}

// prober owns the freshness probes in flight. The UDP sender adds
// probes as it sends their datagrams; the polling client takes the
// oldest pending probe until it quotes 200.
type prober struct {
	mu      sync.Mutex
	pending []*probeRec
	all     []*probeRec
}

func (p *prober) add(r *probeRec) {
	p.mu.Lock()
	p.pending = append(p.pending, r)
	p.all = append(p.all, r)
	p.mu.Unlock()
}

func (p *prober) oldest() *probeRec {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.pending) == 0 {
		return nil
	}
	return p.pending[0]
}

func (p *prober) pop() {
	p.mu.Lock()
	p.pending = p.pending[1:]
	p.mu.Unlock()
}

// poll quotes the oldest pending probe once. It reports whether the
// probe was settled (quotable, or failed with a wrong answer). Datagrams
// reach the window in send order, so a pending probe cannot become
// quotable before an older one; polling only the oldest therefore finds
// every probe's first 200 without a poll per probe per round.
func (p *prober) poll(cl *client, pr *probeRec) bool {
	pr.polls++
	a, err := cl.do(pr.q)
	now := time.Now()
	switch {
	case err != nil:
		pr.failNote = err.Error()
	case a.status == http.StatusNotFound:
		return false // not priced yet
	case a.status == http.StatusOK && a.Source == classWindow:
		pr.fresh = now.Sub(pr.sent)
		cl.prices[priceKey{a.Epoch, a.Tier, math.Float64bits(a.Price)}]++
	default:
		pr.failNote = fmt.Sprintf("status %d source %q before or at first price", a.status, a.Source)
	}
	p.pop()
	return true
}

// probeSchedule returns n probe send times (n a multiple of probeBands),
// fixed before the run starts and never waiting for a detection. gap is
// the reprice interval over probeBands, so probe i = probeBands·j+b at
// start + i·gap falls in band b of the reprice tick's phase; a seeded
// offset puts it at a random point of the j-th of n/probeBands equal
// strata of that band. The probes therefore sample every phase of the
// tick evenly, whatever the tick's offset, and the freshness quantiles
// measure the reprice path, not where the probes happened to land.
// Probes sent a fixed gap after the previous detection lock onto the
// tick phase instead and read interval − gap whatever the reprice costs.
func probeSchedule(seed int64, start time.Time, n int, gap time.Duration) []time.Time {
	r := rand.New(rand.NewSource(seed ^ 0x736368))
	strata := float64(n / probeBands)
	out := make([]time.Time, n)
	for i := range out {
		offset := (float64(i/probeBands) + r.Float64()) / strata * float64(gap)
		out[i] = start.Add(time.Duration(i)*gap + time.Duration(offset))
	}
	return out
}

// udpSender is one UDP socket of the driver: to tierd's collector or to refd.
type udpSender struct {
	conn   *net.UDPConn
	sent   int
	probes []probe
	due    []time.Time
	next   int
	prober *prober
	base   string
}

func newUDPSender(addr string) (*udpSender, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	return &udpSender{conn: conn}, nil
}

func (s *udpSender) send(d []byte) error {
	if _, err := s.conn.Write(d); err != nil {
		return err
	}
	s.sent++
	return nil
}

// sendDueProbes sends every probe whose scheduled time has passed,
// stamping each with its actual send time.
func (s *udpSender) sendDueProbes(now time.Time) error {
	for s.next < len(s.due) && !now.Before(s.due[s.next]) {
		pb := s.probes[s.next]
		rec := &probeRec{q: quoteRequest(s.base, pb.pair, classWindow), sent: time.Now()}
		if err := s.send(pb.datagram); err != nil {
			return err
		}
		s.prober.add(rec)
		s.next++
	}
	return nil
}

// nextProbe is when the next probe is due (zero when none is left).
func (s *udpSender) nextProbe() time.Time {
	if s.next < len(s.due) {
		return s.due[s.next]
	}
	return time.Time{}
}

// percentile returns the q-quantile (0..1) of sorted xs by the
// nearest-rank rule.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 0.5)
}
