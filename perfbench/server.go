package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Server is one bbserve process with a disk store, started from the binary
// the launcher built.
type Server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	log    bytes.Buffer

	pollStop chan struct{}
	pollDone chan struct{}
	mu       sync.Mutex
	inflight int64 // highest /healthz in-flight count seen
	shed     int64 // last /healthz shed count
}

// StartServer launches bin with a disk store under dir and waits until
// /readyz answers. The server's scratch files go to dir as well.
func StartServer(ctx context.Context, bin, dir string) (*Server, error) {
	store, tmp := filepath.Join(dir, "store"), filepath.Join(dir, "tmp")
	for _, d := range []string{store, tmp} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
	s := &Server{
		base: "http://" + addr,
		// Two connections at most: the load generator has two senders.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, DisableCompression: true}},
		exited: make(chan struct{}),
	}
	s.cmd = exec.Command(bin, "-addr", addr, "-store", store, "-drain", "5s")
	s.cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	// If the benchmark is killed outright, the server goes with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Stdout, s.cmd.Stderr = &s.log, &s.log
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bbserve: %w", err)
	}
	go func() { s.cmd.Wait(); close(s.exited) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("bbserve exited before ready: %s", s.log.String())
		case <-ctx.Done():
			s.Stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.Stop()
			return nil, errors.New("bbserve not ready after 30s")
		}
	}
}

// SetUp launches bbserve setupRepeats times, running prime on each launch
// once it is ready, stops every launch but the last and returns it. setup
// is the median CPU time of a set-up, this process's and the server's from
// launch through prime; wall is the median wall time.
func SetUp(ctx context.Context, env *Env, prime func(*Server)) (srv *Server, setup, wall float64, err error) {
	var cpus, walls []float64
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.Stop()
		}
		t0, cpu0 := time.Now(), selfCPU()
		srv, err = StartServer(ctx, filepath.Join(env.Bin, "bbserve"), filepath.Join(env.Work, fmt.Sprintf("server-%d", i)))
		if err != nil {
			return nil, 0, 0, err
		}
		prime(srv)
		srvCPU, err := srv.CPU()
		if err != nil {
			srv.Stop()
			return nil, 0, 0, err
		}
		cpus = append(cpus, (selfCPU() - cpu0 + srvCPU).Seconds())
		walls = append(walls, time.Since(t0).Seconds())
	}
	return srv, Median(cpus), Median(walls), nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// Stop sends SIGTERM, waits for the drain, and kills the process if it has
// not exited within ten seconds. It also stops the health poller.
func (s *Server) Stop() {
	s.StopPolling()
	if s.cmd.Process == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	s.client.CloseIdleConnections()
}

// PeakRSSMB reads the server's resident-set high-water mark (VmHWM).
func (s *Server) PeakRSSMB() (float64, error) {
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

// CPU returns the server's user plus system CPU time so far. The kernel
// leaves time stolen by the hypervisor out of it, so on a shared host it
// varies less than wall time.
func (s *Server) CPU() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	var ticks int64
	for _, x := range f[11:13] {
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100

// selfCPU is this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB parses VmHWM out of a /proc status file.
func peakRSSMB(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// StartPolling reads /healthz every interval and keeps the highest
// in-flight count and the latest shed count.
func (s *Server) StartPolling(interval time.Duration) {
	s.pollStop, s.pollDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.pollDone)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-s.pollStop:
				return
			case <-tick.C:
			}
			var h struct{ Inflight, Shed int64 }
			resp, err := http.Get(s.base + "/healthz")
			if err != nil {
				continue
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err != nil {
				continue
			}
			s.mu.Lock()
			s.inflight = max(s.inflight, h.Inflight)
			s.shed = h.Shed
			s.mu.Unlock()
		}
	}()
}

// StopPolling stops the health poller and waits for it to exit.
func (s *Server) StopPolling() {
	if s.pollStop != nil {
		close(s.pollStop)
		<-s.pollDone
		s.pollStop = nil
	}
}

// Health returns the polled counters.
func (s *Server) Health() (inflightMax, shed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight, s.shed
}

// Reply is a response read in full.
type Reply struct {
	Status int
	Body   []byte
	Hash   string // X-Dataset-Hash
}

// Get fetches path and reads the whole body.
func (s *Server) Get(ctx context.Context, path string) (Reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return Reply{}, err
	}
	return s.do(req)
}

// Upload posts a prepared multipart body to /v1/datasets/name.
func (s *Server) Upload(ctx context.Context, name string, body *Body) (Reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/datasets/"+name, bytes.NewReader(body.Data))
	if err != nil {
		return Reply{}, err
	}
	req.Header.Set("Content-Type", body.ContentType)
	return s.do(req)
}

func (s *Server) do(req *http.Request) (Reply, error) {
	resp, err := s.client.Do(req)
	if err != nil {
		return Reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return Reply{Status: resp.StatusCode}, err
	}
	return Reply{Status: resp.StatusCode, Body: b, Hash: resp.Header.Get("X-Dataset-Hash")}, nil
}

// Body is a multipart upload body with gzipped table parts.
type Body struct {
	Data        []byte
	ContentType string
}

// NewBody gzips each table of dir into a multipart upload body.
func NewBody(dir string) (*Body, error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, table := range []string{"users.csv", "switches.csv", "plans.csv"} {
		raw, err := os.ReadFile(filepath.Join(dir, table))
		if err != nil {
			return nil, err
		}
		part, err := mw.CreateFormFile(table+".gz", table+".gz")
		if err != nil {
			return nil, err
		}
		zw := gzip.NewWriter(part)
		if _, err := zw.Write(raw); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, err
	}
	return &Body{Data: buf.Bytes(), ContentType: mw.FormDataContentType()}, nil
}
