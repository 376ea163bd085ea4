package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile; with fewer, the percentile is lowered until they do.
const minBeyond = 10

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for no samples. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail returns the nearest-rank q-quantile of sorted, lowered to the
// highest percentile that still has minBeyond samples above it, and the
// quantile actually reported. With minBeyond or fewer samples no tail is
// supported and the median is returned.
func tail(sorted []float64, q float64) (v, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n <= minBeyond {
		return sorted[(n-1)/2], 0.5
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k > n-1-minBeyond {
		k = n - 1 - minBeyond
	}
	if k < 0 {
		k = 0
	}
	return sorted[k], float64(k+1) / float64(n)
}

// windowSamples is the smallest window a tail percentile is taken over:
// enough that a p99 has ten samples beyond it.
const windowSamples = 1000

// windowedTail splits samples (in arrival order) into consecutive windows
// of at least windowSamples, takes the q-quantile of each with tail, and
// returns the median across windows and the quantile used. A stall that
// hits one window then moves the result by at most one window's worth,
// which keeps the figure steady from run to run. With fewer than two
// windows' worth it is tail over every sample.
func windowedTail(samples []float64, q float64) (v, used float64) {
	k := len(samples) / windowSamples
	if k < 2 {
		s := append([]float64(nil), samples...)
		sort.Float64s(s)
		return tail(s, q)
	}
	vals := make([]float64, k)
	for i := range vals {
		w := append([]float64(nil), samples[i*len(samples)/k:(i+1)*len(samples)/k]...)
		sort.Float64s(w)
		vals[i], used = tail(w, q)
	}
	return median(vals), used
}

// rung is one fixed offered rate of an open-loop ladder and how it
// fared: headroom is the worst of observed/limit over every criterion, so
// a rung passes when headroom <= 1; throughput is its successful
// completions per second; saturated marks a rung whose backlog outgrew
// the schedule (requests dropped or a long drain).
type rung struct {
	rate       float64
	headroom   float64
	throughput float64
	saturated  bool
}

// maxRate interpolates the highest offered rate that meets every limit
// between the last passing rung and the first failing one. A failing
// rung that saturated measured the capacity directly: its throughput,
// floored at the last passing rate. One that failed a limit without
// saturating is interpolated linearly in headroom. When the lowest rung
// already fails unsaturated, its rate is scaled down by its headroom;
// when every rung passes, the top rate is reported (a floor, not a
// measurement of saturation).
func maxRate(rungs []rung) float64 {
	for i, r := range rungs {
		if r.headroom <= 1 {
			continue
		}
		var lo, hLo float64
		if i > 0 {
			lo, hLo = rungs[i-1].rate, rungs[i-1].headroom
		}
		switch {
		case r.saturated:
			return math.Max(lo, r.throughput)
		case i == 0:
			return r.rate / r.headroom
		}
		return lo + (r.rate-lo)*(1-hLo)/(r.headroom-hLo)
	}
	return rungs[len(rungs)-1].rate
}
