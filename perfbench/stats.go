package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond the tail percentile: a
// timing read from fewer moves with every outlier.
const minBeyond = 10

// cliffRatio is how far apart, as a ratio, the samples on either side of a
// percentile may lie before the percentile counts as sitting at a class
// boundary: there, a small change in how many ops of each class ran moves
// the percentile from one class's latency to the other's.
const cliffRatio = 2.0

// errPlacement marks a percentile that cannot be trusted: too few samples
// beyond the tail, or a percentile at a class boundary.
var errPlacement = errors.New("percentile placement")

// sample is one timed op.
type sample struct {
	class  string
	pass   int
	traced bool
	dur    time.Duration
	err    error
}

// placement says where one percentile fell in the sorted samples.
type placement struct {
	value   time.Duration
	pct     float64  // the percentile, 0–100
	rank    int      // 0-based index in the sorted samples
	beyond  int      // samples strictly above rank
	class   string   // the class of the sample at rank
	classes []string // distinct classes within the window around rank
	ratio   float64  // slowest / fastest sample in that window
}

// atBoundary reports whether the percentile sits between two classes whose
// latencies differ by a cliff.
func (p placement) atBoundary() bool { return len(p.classes) > 1 && p.ratio > cliffRatio }

func (p placement) String() string {
	return fmt.Sprintf("p%.2f = %.4f ms, class %s, %d samples beyond, window classes [%s] spanning %.2fx",
		p.pct, ms(p.value), p.class, p.beyond, strings.Join(p.classes, " "), p.ratio)
}

// percentiles returns the median and the tail — the highest percentile that
// still has minBeyond samples beyond it — with their placement, or an error
// when either sits where it would jump between runs of a mixed workload:
// too few samples beyond the tail, or a percentile at a class boundary.
func percentiles(samples []sample) (p50, tail placement, err error) {
	n := len(samples)
	if n < minBeyond+1 {
		return p50, tail, fmt.Errorf("%w: %d ops leave fewer than %d samples beyond the tail", errPlacement, n, minBeyond)
	}
	sorted := append([]sample(nil), samples...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].dur < sorted[j].dur })
	// The window around a percentile is 2% of the samples either side (at
	// least 2), and never wider than the samples beyond the tail.
	k := n / 50
	if k < 2 {
		k = 2
	}
	p50 = place(sorted, (n-1)/2, k)
	tk := k
	if tk > minBeyond {
		tk = minBeyond
	}
	tail = place(sorted, n-1-minBeyond, tk)
	switch {
	case p50.atBoundary():
		err = fmt.Errorf("%w: op_p50_ms sits at a class boundary: %s", errPlacement, p50)
	case tail.atBoundary():
		err = fmt.Errorf("%w: op_tail_ms sits at a class boundary: %s", errPlacement, tail)
	}
	return p50, tail, err
}

func place(sorted []sample, rank, k int) placement {
	n := len(sorted)
	lo, hi := rank-k, rank+k
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	seen := map[string]bool{}
	var classes []string
	for _, s := range sorted[lo : hi+1] {
		if !seen[s.class] {
			seen[s.class] = true
			classes = append(classes, s.class)
		}
	}
	sort.Strings(classes)
	ratio := 1.0
	if sorted[lo].dur > 0 {
		ratio = float64(sorted[hi].dur) / float64(sorted[lo].dur)
	}
	return placement{
		value:   sorted[rank].dur,
		pct:     100 * float64(rank+1) / float64(n),
		rank:    rank,
		beyond:  n - 1 - rank,
		class:   sorted[rank].class,
		classes: classes,
		ratio:   ratio,
	}
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so the spreads printed here match Python's for the
// same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// median is the middle value of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
