// Command refd is tierbench's reference server: a fixed yardstick of
// the machine's speed that the benchmark loads in turn with tierd.
//
// It serves GET /v1/quote over net/http with a quote-shaped JSON answer
// (parse src and dst, encode a fixed tier and price) and ingests NetFlow
// v5 datagrams on a UDP socket (parse every record, insert its flow key
// into a map that resets each second, append the datagram to a file).
// It uses the standard library only, so no change to the repository's
// code changes its cost: on a shared host whose speed drifts from one
// second to the next, tierd's cost divided by refd's, measured in
// alternating slices on the same CPUs, follows tierd and not the host.
//
//	refd -dir WORKDIR
//
// It prints "refd: serving http://H:P, ingesting udp H:P" on stderr once
// both sockets are bound, and runs until killed.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"time"
)

// NetFlow v5 layout.
const (
	headerSize = 24
	recordSize = 48
)

type quoteResponse struct {
	Src    string  `json:"src"`
	Dst    string  `json:"dst"`
	Tier   int     `json:"tier"`
	Price  float64 `json:"price_usd_per_mbps_month"`
	Source string  `json:"source"`
	Epoch  int64   `json:"epoch"`
}

type flowKey struct {
	src, dst, first, last uint32
	sport, dport, input   uint16
	proto                 uint8
}

func main() {
	dir := flag.String("dir", ".", "directory for the ingest log")
	flag.Parse()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		fatal(err)
	}
	if err := uc.SetReadBuffer(4 << 20); err != nil {
		fatal(err)
	}
	log, err := os.Create(filepath.Join(*dir, "refd.log"))
	if err != nil {
		fatal(err)
	}
	go ingest(uc, log)

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/quote", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		src, err1 := netip.ParseAddr(q.Get("src"))
		dst, err2 := netip.ParseAddr(q.Get("dst"))
		if err1 != nil || err2 != nil {
			http.Error(w, "bad address", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(quoteResponse{src.String(), dst.String(), 1, 2.5, "window", 1})
	})
	fmt.Fprintf(os.Stderr, "refd: serving http://%s, ingesting udp %s\n", ln.Addr(), uc.LocalAddr())
	fatal(http.Serve(ln, mux))
}

// ingest reads datagrams until the socket fails.
func ingest(uc *net.UDPConn, log *os.File) {
	buf := make([]byte, 65536)
	flows := map[flowKey]uint64{}
	reset := time.Now().Add(time.Second)
	for {
		n, err := uc.Read(buf)
		if err != nil {
			fatal(err)
		}
		d := buf[:n]
		for off := headerSize; off+recordSize <= len(d); off += recordSize {
			r := d[off : off+recordSize]
			k := flowKey{
				src: binary.BigEndian.Uint32(r[0:]), dst: binary.BigEndian.Uint32(r[4:]),
				input: binary.BigEndian.Uint16(r[12:]),
				first: binary.BigEndian.Uint32(r[24:]), last: binary.BigEndian.Uint32(r[28:]),
				sport: binary.BigEndian.Uint16(r[32:]), dport: binary.BigEndian.Uint16(r[34:]),
				proto: r[38],
			}
			flows[k] += uint64(binary.BigEndian.Uint32(r[20:]))
		}
		if _, err := log.Write(d); err != nil {
			fatal(err)
		}
		if now := time.Now(); now.After(reset) {
			clear(flows)
			reset = now.Add(time.Second)
			if _, err := log.Seek(0, 0); err != nil {
				fatal(err)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "refd:", err)
	os.Exit(1)
}
