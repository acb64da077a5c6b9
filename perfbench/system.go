package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"probe"
)

// The serving workloads run their system — stores, servers, router — in
// a child process of the harness (the same binary started with
// --system), so the system's memory, allocations and garbage
// collection are its own: the harness's generated operations, oracle
// and collected results live in another process. The harness drives
// the system over the wire and reads its counters over the child's
// standard input and output, one JSON line per request:
//
//	child → "{ready}"         once the system is built and serving
//	"snap" → "{snapshot}"     the system's counters now
//	"end"  → "{snapshot}"     counters, then a checkpoint of a durable
//	                          store, its size and the peak resident set;
//	                          the child then shuts the system down and exits
//
// The child also exits, shutting the system down, when its input closes.

// sysReady is the child's first line: where the system listens and
// the median of its setupReps builds.
type sysReady struct {
	Addr   string  `json:"addr"`
	SetupS float64 `json:"setup_s"`
}

// sysSnap is a snapshot of the system process's counters.
type sysSnap struct {
	PoolGets, PoolHits, PoolEvictions, PhysReads uint64
	WALSyncs, Checkpoints                        uint64
	WALBytes                                     int64 // bytes written to the WAL so far
	// GCPendingMax is the most superseded pages awaiting MVCC
	// collection at once since the previous snapshot, sampled every 5 ms.
	GCPendingMax        int
	Mallocs, AllocBytes uint64
	GCCPU, AllCPU       float64
	// Set by the final snapshot only, after the checkpoint.
	StoreBytes int64
	LivePoints int
	PeakRSSMB  float64 // since the system's first build began
}

func (s sysSnap) goCost() goCost {
	return goCost{mallocs: s.Mallocs, bytes: s.AllocBytes, gcCPU: s.GCCPU, allCPU: s.AllCPU}
}

// sysEnv is a serving system as the child process runs it.
type sysEnv interface {
	addr() string
	databases() []*probe.DB
	files() *ramFS // the durable store's files; nil for in-memory stores
	close()
}

// systems makes, from the seed, the inputs of a serving workload's
// system and returns the function that builds it from them.
var systems = map[string]func(seed int64) func() (sysEnv, error){
	"serve-mixed":  smSystem,
	"cluster-join": cjSystem,
}

// systemMain is the child process: it runs the named workload's system
// and answers the harness until told to end or its input closes.
func systemMain(name string, seed int64) error {
	mk, ok := systems[name]
	if !ok {
		return fmt.Errorf("no system for workload %q", name)
	}
	build := mk(seed)
	freeGarbage()
	resetPeakRSS()
	env, setup, err := timeSetups(build, func(e sysEnv) { e.close(); freeGarbage() })
	if err != nil {
		return err
	}
	defer env.close()
	mon := startMonitor(env.databases())
	defer mon.stop()

	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(sysReady{Addr: env.addr(), SetupS: setup}); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		s := mon.snap(env)
		switch in.Text() {
		case "snap":
		case "end":
			// Measure the store as a checkpoint leaves it, not wherever
			// the log happened to be when the schedule ended.
			if env.files() != nil {
				if _, err := env.databases()[0].Checkpoint(); err != nil {
					return fmt.Errorf("checkpoint after the pass: %w", err)
				}
			}
			s.StoreBytes = storeBytes(env)
			for _, db := range env.databases() {
				s.LivePoints += db.Len()
			}
			s.PeakRSSMB = peakRSSMB()
			return out.Encode(s)
		default:
			return fmt.Errorf("unknown request %q", in.Text())
		}
		if err := out.Encode(s); err != nil {
			return err
		}
	}
	return in.Err()
}

// monitor samples the MVCC backlog of a system's databases.
type monitor struct {
	dbs  []*probe.DB
	mu   sync.Mutex
	max  int
	quit chan struct{}
	done sync.WaitGroup
}

func startMonitor(dbs []*probe.DB) *monitor {
	m := &monitor{dbs: dbs, quit: make(chan struct{})}
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.quit:
				return
			case <-tick.C:
				n := 0
				for _, db := range m.dbs {
					n += db.MVCCStats().RetainedPages
				}
				m.mu.Lock()
				m.max = max(m.max, n)
				m.mu.Unlock()
			}
		}
	}()
	return m
}

func (m *monitor) stop() {
	close(m.quit)
	m.done.Wait()
}

// snap reads the system's counters and starts a new MVCC backlog
// maximum.
func (m *monitor) snap(env sysEnv) sysSnap {
	var s sysSnap
	for _, db := range env.databases() {
		ps := db.Index().Tree().Pool().Stats()
		s.PoolGets += ps.Gets
		s.PoolHits += ps.Hits
		s.PoolEvictions += ps.Evictions
		s.PhysReads += db.IOStats().Reads
	}
	if fs := env.files(); fs != nil {
		ds := env.databases()[0].DurabilityStats()
		s.WALSyncs, s.Checkpoints = ds.WALSyncs, ds.Checkpoints
		s.WALBytes = fs.written(walPath)
	}
	gc := readGoCost()
	s.Mallocs, s.AllocBytes, s.GCCPU, s.AllCPU = gc.mallocs, gc.bytes, gc.gcCPU, gc.allCPU
	m.mu.Lock()
	s.GCPendingMax, m.max = m.max, 0
	m.mu.Unlock()
	return s
}

// storeBytes is the size of the system's stores: the durable store's
// files, or the in-memory stores' pages.
func storeBytes(env sysEnv) int64 {
	if fs := env.files(); fs != nil {
		return fs.bytes()
	}
	var n int64
	for _, db := range env.databases() {
		st := db.Index().Tree().Pool().Store()
		n += int64(st.NumPages() * st.PageSize())
	}
	return n
}

// sysProc is the harness's handle on a system's child process.
type sysProc struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *json.Decoder
	ready   sysReady
	stopped bool
	err     error
}

// startSystem starts the named workload's system in a child process
// and waits until it serves.
func startSystem(name string, seed int64) (*sysProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--system", name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &sysProc{cmd: cmd, in: in, out: json.NewDecoder(out)}
	if err := p.out.Decode(&p.ready); err != nil {
		p.stop()
		return nil, fmt.Errorf("starting the %s system: %w", name, err)
	}
	return p, nil
}

// snap asks for the system's counters.
func (p *sysProc) snap() (sysSnap, error) { return p.request("snap") }

// end asks for the final snapshot and waits for the process to exit.
func (p *sysProc) end() (sysSnap, error) {
	s, err := p.request("end")
	if err := p.stop(); err != nil {
		return s, err
	}
	return s, err
}

func (p *sysProc) request(req string) (sysSnap, error) {
	var s sysSnap
	if _, err := io.WriteString(p.in, req+"\n"); err != nil {
		return s, fmt.Errorf("system process: %w", err)
	}
	if err := p.out.Decode(&s); err != nil {
		return s, fmt.Errorf("system process: %w", err)
	}
	return s, nil
}

// stop closes the process's input, which ends it, and waits for it to
// exit; one still running after 30 seconds is killed.
func (p *sysProc) stop() error {
	if p.stopped {
		return p.err
	}
	p.stopped = true
	p.in.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case p.err = <-done:
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		p.err = fmt.Errorf("system process did not exit; killed (%v)", <-done)
	}
	if p.err != nil {
		p.err = fmt.Errorf("system process: %w", p.err)
	}
	return p.err
}
