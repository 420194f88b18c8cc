package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"tieredpricing/internal/geoip"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/topology"
	"tieredpricing/internal/traces"
)

// pair is one quotable flow: a source and destination address whose
// masked form is a window bucket.
type pair struct{ src, dst netip.Addr }

// probe is one freshness probe: a pair no stream ever carries (its
// destination lies in the reserved probe block) and the one-record
// datagram that introduces it.
type probe struct {
	pair
	datagram []byte
}

// input is one workload's generated trace: what tierd reads from disk
// and stdin, plus what the driver sends and asks for.
type input struct {
	dir      string // trace dir handed to tierd -trace (geoip.csv, meta.txt)
	warmPath string // concatenated export stream piped to tierd -stdin
	warm     [][]byte
	meta     traces.Meta
	geo      *geoip.DB
	pairs    []pair       // one sample pair per window bucket of warm
	dsts     []netip.Addr // destinations of pairs, for RIB-fallback quotes
	probes   []probe
}

// probeBlock is reserved for freshness probes: its /24s are in
// geoip.csv (so they resolve) but never in a generated stream, so each
// probe's pair is unseen until its datagram arrives. Both generators
// allocate stream destinations upward from 10.0.0.0, far below it.
var probeBlock = netip.MustParsePrefix("10.200.0.0/14")

// splitPackets cuts a concatenated v5 export stream into datagrams.
func splitPackets(b []byte) ([][]byte, error) {
	var out [][]byte
	for len(b) > 0 {
		if len(b) < netflow.HeaderSize {
			return nil, errors.New("export stream: truncated header")
		}
		n := netflow.HeaderSize + int(binary.BigEndian.Uint16(b[2:4]))*netflow.RecordSize
		if n > len(b) {
			return nil, errors.New("export stream: truncated packet")
		}
		out = append(out, b[:n:n])
		b = b[n:]
	}
	return out, nil
}

// genServe writes the serve and ingest-flood trace: tracegen's euisp
// dataset (200 flows, 270 datagrams, 8,000 records, every record
// exported by two routers) plus the reserved probe prefixes appended to
// its geoip.csv. serve exists to load the quote path (server handler
// and Snapshot.Quote) while reprice stays ~1 ms per tick; ingest-flood
// re-stamps the same datagrams so every cycle's keys are new (see
// restamp).
func genServe(tracegen, dir string, seed int64, nProbes int) (*input, error) {
	traceDir := filepath.Join(dir, "trace")
	warmPath := filepath.Join(dir, "warm.nf5")
	out, err := os.Create(warmPath)
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command(tracegen, "-dataset", "euisp", "-seed", fmt.Sprint(seed), "-out", traceDir, "-stdout")
	cmd.Stdout, cmd.Stderr = out, &stderr
	err = cmd.Run()
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("tracegen: %v: %s", err, stderr.String())
	}
	in, err := loadTrace(traceDir, warmPath)
	if err != nil {
		return nil, err
	}
	if err := in.addProbes(seed, nProbes); err != nil {
		return nil, err
	}
	return in, nil
}

// genWide writes the reprice-wide trace dir: nPairs destination /24s
// spread over the EU ISP PoP cities, one record per pair exported by
// two routers, and the reserved probe prefixes. At reprice-wide's 10,000
// flows one reprice (aggregate, resolve, fit, optimal bundling DP,
// snapshot build) is the largest part of ingest→quotable freshness, so
// this workload is the one where the reprice layers set it.
func genWide(dir string, seed int64, nPairs, nProbes int) (*input, error) {
	traceDir := filepath.Join(dir, "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	ds, err := traces.EUISP(seed)
	if err != nil {
		return nil, err
	}
	srcBase := netip.MustParsePrefix("172.16.0.0/12")
	var pops []geoip.Record
	for _, rec := range ds.Geo.Records() {
		if srcBase.Contains(rec.Prefix.Addr()) {
			pops = append(pops, rec)
		}
	}
	cities := topology.EuropeanISP().Cities()
	if len(pops) == 0 || len(cities) == 0 {
		return nil, errors.New("wide trace: no PoPs to attach flows to")
	}
	geo := &geoip.DB{}
	for _, p := range pops {
		if err := geo.Insert(p); err != nil {
			return nil, err
		}
	}
	const sampling, durationSec = 1000, 86400.0
	r := rand.New(rand.NewSource(seed))
	alloc, err := geoip.NewPrefixAllocator(netip.MustParsePrefix("10.0.0.0/8"), 24)
	if err != nil {
		return nil, err
	}
	var entry, exit bytes.Buffer
	hdr := netflow.Header{UnixSecs: 1257985000, SamplingInterval: sampling}
	we, wx := netflow.NewWriter(&entry, hdr), netflow.NewWriter(&exit, hdr)
	for i := 0; i < nPairs; i++ {
		dstPfx, err := alloc.Next()
		if err != nil {
			return nil, err
		}
		c := cities[r.Intn(len(cities))]
		if err := geo.Insert(geoip.Record{Prefix: dstPfx, City: c.Name, Country: c.Country, Lat: c.Lat, Lon: c.Lon}); err != nil {
			return nil, err
		}
		pop := pops[r.Intn(len(pops))]
		// Lognormal demand around ~2 Mbps per destination: the heavy
		// tail gives the bundling DP distinct tiers to find.
		mbps := 2 * math.Exp(1.2*r.NormFloat64())
		octets := math.Min(mbps*1e6/8*durationSec/sampling, 4e9)
		start := uint32(r.Intn(int(durationSec))) * 1000
		rec := netflow.Record{
			SrcAddr: pop.Prefix.Addr().Next(),
			DstAddr: dstPfx.Addr().Next(),
			Packets: uint32(octets / 1000),
			Octets:  uint32(octets),
			First:   start,
			Last:    start + uint32(1+r.Intn(60000)),
			SrcPort: uint16(1024 + r.Intn(60000)),
			DstPort: 443,
			Proto:   6,
			DstMask: 24,
		}
		rec.Input, rec.Output = 0, 1
		if err := we.Write(rec); err != nil {
			return nil, err
		}
		rec.Input, rec.Output = 1, 2
		if err := wx.Write(rec); err != nil {
			return nil, err
		}
	}
	if err := we.Flush(); err != nil {
		return nil, err
	}
	if err := wx.Flush(); err != nil {
		return nil, err
	}
	warmPath := filepath.Join(dir, "warm.nf5")
	if err := os.WriteFile(warmPath, append(entry.Bytes(), exit.Bytes()...), 0o644); err != nil {
		return nil, err
	}
	if err := writeGeo(filepath.Join(traceDir, "geoip.csv"), geo); err != nil {
		return nil, err
	}
	var meta strings.Builder
	if err := traces.WriteMeta(&meta, traces.Meta{Dataset: "euisp", Seed: seed, Flows: nPairs,
		P0: 20, DurationSec: durationSec, Sampling: sampling, Routers: 2}); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(traceDir, "meta.txt"), []byte(meta.String()), 0o644); err != nil {
		return nil, err
	}
	in, err := loadTrace(traceDir, warmPath)
	if err != nil {
		return nil, err
	}
	if err := in.addProbes(seed, nProbes); err != nil {
		return nil, err
	}
	return in, nil
}

func writeGeo(path string, geo *geoip.DB) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := geo.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadTrace reads a generated trace dir and warm stream back, and
// derives the quote set: one sample pair per aggregation bucket.
func loadTrace(traceDir, warmPath string) (*input, error) {
	meta, err := traces.ReadMetaFile(filepath.Join(traceDir, "meta.txt"))
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(traceDir, "geoip.csv"))
	if err != nil {
		return nil, err
	}
	geo, err := geoip.ReadCSV(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(warmPath)
	if err != nil {
		return nil, err
	}
	warm, err := splitPackets(raw)
	if err != nil {
		return nil, err
	}
	in := &input{dir: traceDir, warmPath: warmPath, warm: warm, meta: meta, geo: geo}
	seen := map[string]bool{}
	dsts := map[netip.Addr]bool{}
	for _, d := range warm {
		_, recs, err := netflow.DecodePacket(d)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			key := traces.AggregateKey(rec)
			if seen[key] {
				continue
			}
			seen[key] = true
			in.pairs = append(in.pairs, pair{rec.SrcAddr, rec.DstAddr})
			if !dsts[rec.DstAddr] {
				dsts[rec.DstAddr] = true
				in.dsts = append(in.dsts, rec.DstAddr)
			}
		}
	}
	if len(in.pairs) != meta.Flows {
		return nil, fmt.Errorf("trace %s: %d buckets in the stream, meta.txt says %d flows", traceDir, len(in.pairs), meta.Flows)
	}
	sort.Slice(in.dsts, func(i, j int) bool { return in.dsts[i].Less(in.dsts[j]) })
	return in, nil
}

// addProbes reserves nProbes /24s of probeBlock in geoip.csv, each
// located at a random destination city of the trace, and builds the
// one-record datagram that introduces each probe pair.
func (in *input) addProbes(seed int64, nProbes int) error {
	r := rand.New(rand.NewSource(seed ^ 0x70726f6265))
	var dstRecs []geoip.Record
	for _, rec := range in.geo.Records() {
		if rec.Prefix.Bits() == 24 {
			dstRecs = append(dstRecs, rec)
		}
	}
	if len(dstRecs) == 0 {
		return errors.New("probes: trace has no destination prefixes")
	}
	h, recs, err := netflow.DecodePacket(in.warm[0])
	if err != nil {
		return err
	}
	alloc, err := geoip.NewPrefixAllocator(probeBlock, 24)
	if err != nil {
		return err
	}
	for i := 0; i < nProbes; i++ {
		pfx, err := alloc.Next()
		if err != nil {
			return err
		}
		if _, taken := in.geo.Lookup(pfx.Addr()); taken {
			return fmt.Errorf("probes: reserved prefix %v already in the trace", pfx)
		}
		loc := dstRecs[r.Intn(len(dstRecs))]
		loc.Prefix = pfx
		if err := in.geo.Insert(loc); err != nil {
			return err
		}
		src := in.pairs[r.Intn(len(in.pairs))].src
		rec := recs[0]
		rec.SrcAddr, rec.DstAddr = src, pfx.Addr().Next()
		rec.SrcPort = uint16(1024 + r.Intn(60000))
		rec.SrcAS = 0
		d, err := netflow.EncodePacket(h, []netflow.Record{rec})
		if err != nil {
			return err
		}
		in.probes = append(in.probes, probe{pair{src, rec.DstAddr}, d})
	}
	return writeGeo(filepath.Join(in.dir, "geoip.csv"), in.geo)
}

// restamp copies datagram d into buf with every record's First and Last
// uptime bumped by cycle, so each ingest-flood cycle carries new dedup
// keys while the cross-router duplicates inside a cycle stay
// duplicates. Re-sending tracegen's output unchanged would only ever
// take the window's duplicate branch; this is the only workload that
// reaches the fresh-key insert path (bucket-key build, per-slot dedup
// map insert, aggregate update).
func restamp(buf, d []byte, cycle uint32) []byte {
	buf = append(buf[:0], d...)
	for off := netflow.HeaderSize; off+netflow.RecordSize <= len(buf); off += netflow.RecordSize {
		for _, f := range [2]int{off + 24, off + 28} {
			binary.BigEndian.PutUint32(buf[f:], binary.BigEndian.Uint32(buf[f:])+cycle)
		}
	}
	return buf
}
