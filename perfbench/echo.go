package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"
)

// A result-cache hit is mostly a loopback HTTP round trip between two
// processes: two wake-ups, two trips through the kernel's TCP stack and
// net/http on both ends, around a few microseconds of parsing and lookup.
// Its time follows how fast the shared machine wakes processes and moves
// bytes, which the CPU-bound reference slices track only loosely. So hit
// latencies are scaled by their own yardstick: after every hit the client
// sends the same body to an echo process — this benchmark's binary in
// --echo mode, answering with a reply the size of a hit's answer and
// running no repository code — over a keep-alive connection of its own,
// and reports
//
//	hit p50 × echoNominalP50MS / (median echo round trip of its block)
//	hit p90 × echoNominalP90MS / (p90 echo round trip of its block)
//
// Taking turns request by request, the hits and the echoes meet the same
// machine state; an echo block run after each hit block tracked it
// poorly.

const (
	// echoNominalP50MS and echoNominalP90MS are the reference round
	// trip: about the echo's median and p90 in serve on the machine the
	// benchmark was built on.
	echoNominalP50MS = 0.06
	echoNominalP90MS = 0.08
	// echoReplyBytes is about the size of a hit's answer (2.3–3.6 KB).
	echoReplyBytes = 2560
)

// serveEcho is the --echo mode: it answers /healthz and POST /echo on
// addr until the process is signalled.
func serveEcho(addr string) error {
	reply := bytes.Repeat([]byte("x"), echoReplyBytes)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("POST /echo", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(reply)
	})
	return http.ListenAndServe(addr, mux)
}

// echoer is the client's side of the echo reference.
type echoer struct {
	proc  *daemon
	hc    *httpClient
	block []float64 // round trips (ms) since the last call to scale
	rtts  []float64 // median round trip of each block
}

// startEcho starts the echo process on a free loopback port with one P,
// like a daemon, and waits until it is healthy.
func startEcho(rc *runCtx) (*echoer, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient()
	d, err := startProcess(rc, hc, "echo", exe, 1, "--echo")
	if err != nil {
		return nil, err
	}
	return &echoer{proc: d, hc: hc}, nil
}

func (e *echoer) stop() {
	if e != nil {
		e.proc.stop()
	}
}

// roundTrip sends body to the echo process and records the round trip.
func (e *echoer) roundTrip(body []byte) error {
	t := time.Now()
	status, _, err := e.hc.do(http.MethodPost, e.proc.url+"/echo", body)
	e.block = append(e.block, ms(time.Since(t)))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("echo: status %d", status)
	}
	return nil
}

// scales returns the factors that bring the p50 and the p90 of the
// latencies measured beside the block's round trips to the reference
// round trip's, and starts a new block. Each percentile is scaled by the
// echo's own: the slowest tenth of hits and of echoes met the same
// stalls, and their ratio held within ±4% across blocks where the ratio
// of the hits' p90 to the echoes' median moved by ±20%.
func (e *echoer) scales() (p50, p90 float64) {
	rtt50, rtt90 := quantile(e.block, 0.5), quantile(e.block, 0.9)
	e.block = e.block[:0]
	e.rtts = append(e.rtts, rtt50)
	return echoNominalP50MS / rtt50, echoNominalP90MS / rtt90
}
