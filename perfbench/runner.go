package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"privanalyzer/internal/api"
)

// stream hands ops to the clients in pass order. A run always ends on a
// pass boundary, so every class of the mix has run equally often (give or
// take the passes still in flight on other clients). In a traced run the
// passes begun in the first half of the run length are untraced and the
// rest traced.
type stream struct {
	b        *bench
	rng      *rand.Rand
	trace    bool
	start    time.Time
	length   time.Duration
	onSwitch func() // called once, when the first traced pass begins

	mu         sync.Mutex
	ops        []op
	idx        int
	pass       int
	tracedFrom int // first traced pass; -1 until tracing begins
	nextID     int64
	starts     []mark // when each pass's first op was handed out
}

// next returns the next op, its pass and id, and whether it is traced; ok
// is false once the run is over.
func (s *stream) next() (o op, pass int, id int64, traced, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx == len(s.ops) {
		elapsed := time.Since(s.start)
		if elapsed >= s.length && s.pass >= 0 && (!s.trace || s.tracedFrom >= 0) {
			return op{}, 0, 0, false, false
		}
		s.pass++
		s.starts = append(s.starts, markNow())
		if s.trace && s.tracedFrom < 0 && s.pass > 0 && elapsed >= s.length/2 {
			s.tracedFrom = s.pass
			s.onSwitch()
		}
		s.ops, s.idx = s.b.pass(s.rng), 0
	}
	o = s.ops[s.idx]
	s.idx++
	s.nextID++
	return o, s.pass, s.nextID, s.trace && s.tracedFrom >= 0 && s.pass >= s.tracedFrom, true
}

// mark is the clock, the process's CPU time and the host's CPU ticks at one
// instant: cheap enough to take at every pass boundary.
type mark struct {
	at  time.Time
	cpu time.Duration
	// steal and ticks are the host's CPU ticks stolen from this VM and all
	// its CPU ticks (/proc/stat), for steal's share of an interval.
	steal, ticks int64
}

func markNow() mark {
	m := mark{at: time.Now(), cpu: processCPU()}
	m.steal, m.ticks = hostTicks()
	return m
}

// window is a snapshot of process-wide counters at one instant.
type window struct {
	mark
	alloc    uint64
	gcs      uint32
	waitNS   int64
	waits    int64
	shed     int64
	hasStats bool
}

func snapshot(b *bench) window {
	w := window{mark: markNow()}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w.alloc, w.gcs = m.TotalAlloc, m.NumGC
	if b.srv != nil {
		if mr, err := serverMetrics(b); err == nil {
			w.hasStats = true
			h := mr.Histograms["server_queue_wait_ns"]
			w.waitNS, w.waits = h.Sum, h.Count
			for name, v := range mr.Counters {
				if strings.HasPrefix(name, "server_shed_") {
					w.shed += v
				}
			}
		}
	}
	return w
}

// serverMetrics reads the server's /v1/metrics.json through its handler.
func serverMetrics(b *bench) (*api.MetricsResponse, error) {
	rec := httptest.NewRecorder()
	b.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics.json", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/v1/metrics.json: status %d", rec.Code)
	}
	var mr api.MetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil {
		return nil, fmt.Errorf("/v1/metrics.json: %w", err)
	}
	return &mr, nil
}

// hostTicks returns the CPU ticks the hypervisor stole from this machine and
// all CPU ticks, from the aggregate line of /proc/stat; zeros where that is
// unavailable. Steal is time the machine's CPUs were not running at all, so
// it stretches every wall-clock metric and is reported beside them.
func hostTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user.
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:9] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealShare is the share of CPU time stolen between two marks.
func stealShare(a, b mark) float64 {
	if b.ticks <= a.ticks {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.ticks-a.ticks)
}

// processCPU is the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set size in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports KiB
}

// measurement is one timed run.
type measurement struct {
	samples          []sample
	passes           int
	starts           []mark // per pass, when its first op was handed out
	first, mid, last window // mid is the switch to tracing (traced runs)
	tracedFrom       int
}

// stealLimit is the largest share of the host's CPU time the hypervisor may
// have stolen during a pass or a set-up for it to count as quiet. At the
// kernel's 10 ms tick it lets a 300 ms pass on 2 CPUs lose one tick.
const stealLimit = 0.02

// timing is the part of a run its timings are taken from.
type timing struct {
	samples         []sample
	wall, cpu       time.Duration
	passes, ofTotal int
	steal           float64 // steal share over the passes taken
}

// quietPasses returns the timing of the passes in [from, to) that ran
// while the hypervisor stole at most stealLimit of the host's CPU time or,
// when fewer than three quarters of them did, of the three quarters that
// lost the least; so a run keeps enough passes for its tail to stay in the
// same class of the mix. Steal
// comes in bursts of a few seconds and stretches every wall-clock figure,
// so the passes it spared measure the program rather than the neighbours.
// A pass's interval runs from the hand-out of its first op to that of the
// next pass's first op (or the end of the run).
func (m *measurement) quietPasses(from, to int) timing {
	type interval struct {
		pass       int
		start, end mark
		steal      float64
	}
	var all []interval
	for p := from; p < to && p < len(m.starts); p++ {
		end := m.last.mark
		if p+1 < len(m.starts) {
			end = m.starts[p+1]
		}
		all = append(all, interval{p, m.starts[p], end, stealShare(m.starts[p], end)})
	}
	var picked []interval
	for _, iv := range all {
		if iv.steal <= stealLimit {
			picked = append(picked, iv)
		}
	}
	if keep := (3*len(all) + 3) / 4; len(picked) < keep {
		picked = append([]interval(nil), all...)
		sort.SliceStable(picked, func(i, j int) bool { return picked[i].steal < picked[j].steal })
		picked = picked[:keep]
	}
	t := timing{passes: len(picked), ofTotal: len(all)}
	in := map[int]bool{}
	var stolen, ticks int64
	for _, iv := range picked {
		in[iv.pass] = true
		t.wall += iv.end.at.Sub(iv.start.at)
		t.cpu += iv.end.cpu - iv.start.cpu
		stolen += iv.end.steal - iv.start.steal
		ticks += iv.end.ticks - iv.start.ticks
	}
	if ticks > 0 {
		t.steal = float64(stolen) / float64(ticks)
	}
	for _, s := range m.samples {
		if in[s.pass] {
			t.samples = append(t.samples, s)
		}
	}
	return t
}

func (t timing) opsPerSec() float64 { return float64(len(t.samples)) / t.wall.Seconds() }

func (t timing) String() string {
	return fmt.Sprintf("%d of %d passes (steal share %.4f over them; passes with steal over %.2f are left out while three quarters remain)",
		t.passes, t.ofTotal, t.steal, stealLimit)
}

// measure runs the workload's clients in a closed loop until the run
// length has passed and the current passes have finished.
func measure(ctx context.Context, b *bench, cfg config, tr *tracer) *measurement {
	m := &measurement{}
	st := &stream{
		b:          b,
		rng:        rand.New(rand.NewSource(cfg.seed)),
		trace:      cfg.trace,
		length:     cfg.run,
		pass:       -1,
		tracedFrom: -1,
		onSwitch:   func() { m.mid = snapshot(b) },
	}
	m.first = snapshot(b)
	st.start = m.first.at
	var mu sync.Mutex
	var wg sync.WaitGroup
	var tracedOps []*opTrace
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				o, pass, id, traced, ok := st.next()
				if !ok {
					return
				}
				var t *opTrace
				if traced {
					t = &opTrace{tracer: tr, op: id, pass: pass, class: o.class}
				}
				d, err := o.do(ctx, t)
				mu.Lock()
				if t != nil {
					t.sample = len(m.samples)
					tracedOps = append(tracedOps, t)
				}
				m.samples = append(m.samples, sample{class: o.class, pass: pass, traced: traced, dur: d, err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	m.last = snapshot(b)
	m.passes = st.pass + 1
	m.starts = st.starts
	m.tracedFrom = st.tracedFrom
	// Replays run after the timed window, one at a time, so they neither
	// thin the closed loop's load nor count as tracing overhead.
	for _, t := range tracedOps {
		if t.replay == nil || m.samples[t.sample].err != nil {
			continue
		}
		if err := t.replay(ctx); err != nil {
			m.samples[t.sample].err = fmt.Errorf("replay: %w", err)
		}
	}
	return m
}
