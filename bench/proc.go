package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/coord"
)

var selfPID = os.Getpid()

// clockTicks is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime returns the summed user+system CPU time of the processes,
// read from /proc/<pid>/stat.
func cpuTime(pids []int) (time.Duration, error) {
	var ticks int64
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		// The command name may hold spaces; the fields after it do not.
		i := bytes.LastIndexByte(b, ')')
		if i < 0 {
			return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
		}
		f := strings.Fields(string(b[i+1:]))
		// f[0] is field 3 (state); utime and stime are fields 14 and 15.
		if len(f) < 13 {
			return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
		}
		for _, s := range f[11:13] {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
			}
			ticks += v
		}
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS returns the summed peak resident set size (VmHWM) of the
// processes in KiB.
func peakRSS(pids []int) (int64, error) {
	var kb int64
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) == 0 {
					break
				}
				v, err := strconv.ParseInt(f[0], 10, 64)
				if err != nil {
					return 0, fmt.Errorf("/proc/%d/status VmHWM: %w", pid, err)
				}
				kb += v
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
		}
	}
	return kb, nil
}

// runtimeStats are the runtime/metrics counters a timed phase reads at
// its start and end.
type runtimeStats struct {
	gcCycles        uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{gcCycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// workerEnv, set to 1 in a child's environment, makes the benchmark
// binary (or its test binary) serve the coord worker protocol on its
// stdin and stdout instead of running.
const workerEnv = "CAMPAIGN_BENCH_WORKER"

func serveWorker() error {
	return coord.ServeWorker(context.Background(), os.Stdin, os.Stdout, coord.WorkerOptions{})
}

// workerSet is a coord.Pool over local worker processes that re-execute
// this binary. Each worker's pipes are wrapped in a tapConn handed to
// Pool.AddConn, so the set can count the protocol traffic and wait for
// every process it started.
type workerSet struct {
	pool  *coord.Pool
	cmds  []*exec.Cmd
	conns []*tapConn
}

// startWorkers spawns n worker processes and waits for their protocol
// handshakes. With record set, the taps keep frame timestamps and the
// result frames for the traced run.
func startWorkers(n int, record bool) (*workerSet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ws := &workerSet{pool: coord.NewPool(coord.PoolOptions{})}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), workerEnv+"=1")
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			ws.close()
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			ws.close()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			ws.close()
			return nil, fmt.Errorf("starting worker: %w", err)
		}
		t := &tapConn{r: stdout, w: stdin, record: record, worker: i}
		ws.cmds = append(ws.cmds, cmd)
		ws.conns = append(ws.conns, t)
		ws.pool.AddConn(t)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ws.pool.WaitReady(ctx, n); err != nil {
		ws.close()
		return nil, err
	}
	return ws, nil
}

// close shuts the pool down and waits for every worker process to exit,
// killing any that has not exited 10 seconds after its stdin closed.
func (ws *workerSet) close() {
	ws.pool.Close()
	for _, cmd := range ws.cmds {
		done := make(chan struct{})
		go func() {
			_ = cmd.Wait() // a killed or failed worker is reported by the job, not here
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			<-done
		}
	}
}

func (ws *workerSet) pids() []int {
	out := make([]int, len(ws.cmds))
	for i, cmd := range ws.cmds {
		out[i] = cmd.Process.Pid
	}
	return out
}

// assigned counts the assign frames sent to all workers so far.
func (ws *workerSet) assigned() int {
	n := 0
	for _, t := range ws.conns {
		t.mu.Lock()
		n += t.assigns
		t.mu.Unlock()
	}
	return n
}

// requeues counts ranges assigned more than once: the coordinator
// reassigns a range only when the worker that held it was lost.
func (ws *workerSet) requeues() int {
	seen := map[[2]int]bool{}
	n := 0
	for _, t := range ws.conns {
		t.mu.Lock()
		for _, k := range t.assignKeys {
			if seen[k] {
				n++
			}
			seen[k] = true
		}
		t.mu.Unlock()
	}
	return n
}

// frameEvent is one assign sent or result received on a worker
// connection, with the wall time the tap saw it.
type frameEvent struct {
	kind string
	at   time.Time
	job  int
}

// tapConn is the io.ReadWriteCloser a worker's pipes are handed to the
// pool as. It counts bytes and frames in each direction and reads each
// frame's leading "type" field: the coordinator writes one whole frame
// per Write, and received frames end at a newline.
type tapConn struct {
	r      io.ReadCloser
	w      io.WriteCloser
	record bool
	worker int
	once   sync.Once

	mu                  sync.Mutex
	bytesIn, bytesOut   int64
	framesIn, framesOut int
	assigns             int
	assignKeys          [][2]int // (job, range start) of every assign
	head                []byte   // the received frame in progress
	events              []frameEvent
	resultFrames        [][]byte
}

// headLen is how much of a received frame an unrecorded tap keeps:
// enough for its type field.
const headLen = 32

func (t *tapConn) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.observeIn(p[:n], time.Now())
	}
	return n, err
}

func (t *tapConn) observeIn(b []byte, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bytesIn += int64(len(b))
	for len(b) > 0 {
		chunk := b
		i := bytes.IndexByte(b, '\n')
		if i >= 0 {
			chunk = b[:i+1]
		}
		b = b[len(chunk):]
		if keep := headLen - len(t.head); t.record || keep > 0 {
			if !t.record && len(chunk) > keep {
				t.head = append(t.head, chunk[:keep]...)
			} else {
				t.head = append(t.head, chunk...)
			}
		}
		if i < 0 {
			return
		}
		t.framesIn++
		if frameType(t.head) == "result" && t.record {
			var f struct {
				Job int `json:"job"`
			}
			_ = json.Unmarshal(t.head, &f) // an undecodable frame fails the job itself
			t.events = append(t.events, frameEvent{kind: "result", at: now, job: f.Job})
			t.resultFrames = append(t.resultFrames, append([]byte(nil), t.head...))
		}
		t.head = t.head[:0]
	}
}

func (t *tapConn) Write(p []byte) (int, error) {
	now := time.Now()
	t.mu.Lock()
	t.bytesOut += int64(len(p))
	t.framesOut += bytes.Count(p, []byte{'\n'})
	if frameType(p) == "assign" {
		var f struct {
			Job   int            `json:"job"`
			Range campaign.Range `json:"range"`
		}
		_ = json.Unmarshal(p, &f) // the coordinator wrote it; it decodes
		t.assigns++
		t.assignKeys = append(t.assignKeys, [2]int{f.Job, f.Range.Lo})
		if t.record {
			t.events = append(t.events, frameEvent{kind: "assign", at: now, job: f.Job})
		}
	}
	t.mu.Unlock()
	return t.w.Write(p)
}

// Close closes the worker's stdin, which ends its ServeWorker loop.
func (t *tapConn) Close() error {
	var err error
	t.once.Do(func() { err = t.w.Close() })
	return err
}

// frameType returns the value of a frame's leading "type" field, or ""
// when the frame does not start with one.
func frameType(frame []byte) string {
	const prefix = `{"type":"`
	if !bytes.HasPrefix(frame, []byte(prefix)) {
		return ""
	}
	rest := frame[len(prefix):]
	i := bytes.IndexByte(rest, '"')
	if i < 0 {
		return ""
	}
	return string(rest[:i])
}
