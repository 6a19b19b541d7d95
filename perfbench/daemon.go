package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one mmxd or mmxfleet process the benchmark started.
type daemon struct {
	name   string
	url    string
	cmd    *exec.Cmd
	log    *os.File
	exited chan error
	info   daemonInfo
}

// startDaemon launches bin from the benchmark's bin directory on a free
// loopback port with its scheduler sized to gomaxprocs, and waits until
// /healthz answers 200.
func startDaemon(rc *runCtx, hc *httpClient, name, bin string, gomaxprocs int, args ...string) (*daemon, error) {
	return startProcess(rc, hc, name, filepath.Join(rc.binDir, bin), gomaxprocs, args...)
}

// startProcess launches the executable at path with -addr and args, as
// startDaemon does.
func startProcess(rc *runCtx, hc *httpClient, name, path string, gomaxprocs int, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args = append([]string{"-addr", addr}, args...)
	logf, err := os.Create(filepath.Join(rc.outDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(path, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed mid-run must not leave its daemons behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{
		name: name, url: "http://" + addr, cmd: cmd, log: logf, exited: make(chan error, 1),
		info: daemonInfo{Name: name, Args: append([]string{filepath.Base(path)}, args...), GOMAXPROCS: gomaxprocs},
	}
	go func() { d.exited <- cmd.Wait() }()
	if err := d.waitHealthy(hc, 30*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// freeAddr returns a loopback address with a port the kernel just handed
// out and released.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func (d *daemon) waitHealthy(hc *httpClient, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case err := <-d.exited:
			d.exited <- err
			return fmt.Errorf("%s exited before it was healthy: %v (log %s)", d.name, err, d.log.Name())
		default:
		}
		if status, _, err := hc.do(http.MethodGet, d.url+"/healthz", nil); err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %s (log %s)", d.name, timeout, d.log.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSSMiB reads the process's high-water resident set from /proc.
func (d *daemon) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", d.name)
}

// stop drains the daemon with SIGTERM, kills it if it has not exited
// within the grace period, and waits for it either way.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

func stopAll(ds []*daemon) {
	for _, d := range ds {
		d.stop()
	}
}

// httpClient is one keep-alive connection, to one host at a time.
// Switching hosts closes the idle connection first. The load generator
// has one for the system and one for the echo reference, so at most
// clientConns connections are ever open.
type httpClient struct {
	tr   *http.Transport
	c    *http.Client
	host string
}

func newHTTPClient() *httpClient {
	tr := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     clientConns,
		MaxIdleConnsPerHost: clientConns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &httpClient{tr: tr, c: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (h *httpClient) request(method, rawURL string, body []byte) (*http.Response, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	if u.Host != h.host {
		h.tr.CloseIdleConnections()
		h.host = u.Host
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, rawURL, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return h.c.Do(req)
}

// do sends one request and reads the whole response.
func (h *httpClient) do(method, rawURL string, body []byte) (int, []byte, error) {
	resp, err := h.request(method, rawURL, body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// getJSON decodes a 200 JSON response into v.
func (h *httpClient) getJSON(rawURL string, v any) error {
	status, data, err := h.do(http.MethodGet, rawURL, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", rawURL, status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// scrape returns the numeric top-level fields of a /metrics document.
func (h *httpClient) scrape(base string) (map[string]float64, error) {
	var doc map[string]any
	if err := h.getJSON(base+"/metrics", &doc); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(doc))
	for k, v := range doc {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// awaitDone reads a campaign's server-sent events until the terminal
// "done" event and returns the moment it arrived with its payload.
func (h *httpClient) awaitDone(rawURL string) (time.Time, []byte, error) {
	resp, err := h.request(http.MethodGet, rawURL, nil)
	if err != nil {
		return time.Time{}, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return time.Time{}, nil, fmt.Errorf("GET %s: status %d", rawURL, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && done {
			at := time.Now()
			_, _ = io.Copy(io.Discard, resp.Body) // let the connection be reused
			return at, []byte(data), nil
		}
	}
	if err := sc.Err(); err != nil {
		return time.Time{}, nil, err
	}
	return time.Time{}, nil, fmt.Errorf("GET %s: stream ended without a done event", rawURL)
}
