package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"syslogdigest/internal/obs"
)

// dist summarizes a sample as the benchmark reports every timing: the
// median and the highest percentile that still has at least ten samples
// beyond it, with the sample count.
type dist struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	Tail   float64 `json:"tail"`
	TailPc float64 `json:"tail_pct"`
}

// tailPcts are the candidate tail percentiles, highest first.
var tailPcts = []float64{99.9, 99, 95, 90, 75, 50}

func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	d.P50, d.P90 = quantile(s, 0.5), quantile(s, 0.9)
	for _, pc := range tailPcts {
		if float64(len(s))*(1-pc/100) >= 10 || pc == 50 {
			d.Tail, d.TailPc = quantile(s, pc/100), pc
			break
		}
	}
	return d
}

// segments are latency samples split into stretches of the run: one pass
// each on a closed loop, a tenth of the schedule each on the open loop
// (by where in the feed the record was triggered).
type segments [][]float64

func (s segments) add(i int, v float64) {
	i = min(i, len(s)-1)
	s[i] = append(s[i], v)
}

// summarize reports the median over segments of each segment's median
// and tail percentile, so that one stretch hit by a stall (a checkpoint,
// a GC pause, the host descheduling the process) moves the figure by one
// sample rather than owning the tail. The tail percentile is chosen from
// the pooled count; N is the pooled count.
func (s segments) summarize() dist {
	var pooled []float64
	for _, seg := range s {
		pooled = append(pooled, seg...)
	}
	d := summarize(pooled)
	if d.N == 0 {
		return d
	}
	var p50s, p90s, tails []float64
	for _, seg := range s {
		if len(seg) > 0 {
			p50s = append(p50s, pct(seg, 0.5))
			p90s = append(p90s, pct(seg, 0.9))
			tails = append(tails, pct(seg, d.TailPc/100))
		}
	}
	d.P50, d.P90, d.Tail = median(p50s), median(p90s), median(tails)
	return d
}

// pct returns the q-quantile of xs (unsorted), 0 for an empty sample.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, q)
}

// quantile interpolates linearly between the order statistics of sorted s.
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return pct(xs, 0.5) }

// histQuantile estimates a quantile from an obs histogram snapshot by
// linear interpolation inside the bucket that holds it.
func histQuantile(h *obs.HistogramValue, q float64) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var cum float64
	lower := 0.0
	for _, b := range h.Buckets {
		upper, err := strconv.ParseFloat(b.LE, 64)
		if err != nil || math.IsInf(upper, 1) { // overflow bucket: report the last finite bound
			return lower
		}
		if c := float64(b.Count); cum+c >= target && c > 0 {
			return lower + (upper-lower)*(target-cum)/c
		}
		cum += float64(b.Count)
		lower = upper
	}
	return lower
}

// usage is a point-in-time reading of the process's resource books.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user + sys
	mallocs uint64
	numGC   uint32
	gcCPU   float64 // seconds of GC CPU (runtime/metrics)
	allCPU  float64 // seconds of all Go CPU classes
	steal   float64 // host-wide seconds the hypervisor ran other guests
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// sub returns u with the CPU, allocations, collections and wall time of
// the interval [from, to] taken out.
func (u usage) sub(from, to usage) usage {
	u.wall = u.wall.Add(-to.wall.Sub(from.wall))
	u.cpu -= to.cpu - from.cpu
	u.mallocs -= to.mallocs - from.mallocs
	u.numGC -= to.numGC - from.numGC
	u.gcCPU -= to.gcCPU - from.gcCPU
	u.allCPU -= to.allCPU - from.allCPU
	u.steal -= to.steal - from.steal
	return u
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return usage{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		gcCPU:   cpuSamples[0].Value.Float64(),
		allCPU:  cpuSamples[1].Value.Float64(),
		steal:   stealSeconds(),
	}
}

// stealSeconds reads the host's cumulative steal time from /proc/stat
// (0 where unavailable): a run with much steal ran on a contended host.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapSampler tracks, while it runs, the peak heap (live and garbage
// objects) and the peak live heap a collection marked. Both depend on
// where collections fall; the live peak at least leaves garbage out.
type heapSampler struct {
	stop       chan struct{}
	done       chan struct{}
	paused     atomic.Bool
	peak, live uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if !h.paused.Load() {
				metrics.Read(s)
				h.peak = max(h.peak, s[0].Value.Uint64())
				h.live = max(h.live, s[1].Value.Uint64())
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak heap and peak live heap in MB.
func (h *heapSampler) Stop() (peak, live float64) {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20), float64(h.live) / (1 << 20)
}
