package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n        int
		q        float64
		want     float64
		wantUsed float64
	}{
		{n: 1000, q: 0.99, want: 990, wantUsed: 0.99}, // exactly 10 beyond
		{n: 2000, q: 0.99, want: 1980, wantUsed: 0.99},
		{n: 500, q: 0.99, want: 490, wantUsed: 0.98}, // lowered to p98
		{n: 100, q: 0.99, want: 90, wantUsed: 0.90},
		{n: 11, q: 0.99, want: 1, wantUsed: 1.0 / 11},
		{n: 10, q: 0.99, want: 5, wantUsed: 0.5}, // no tail supported: median
		{n: 1000, q: 0.5, want: 500, wantUsed: 0.5},
	} {
		got, used := tail(seq(tc.n), tc.q)
		if got != tc.want || math.Abs(used-tc.wantUsed) > 1e-12 {
			t.Errorf("tail(n=%d, q=%v) = %v at %v, want %v at %v", tc.n, tc.q, got, used, tc.want, tc.wantUsed)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got {
				beyond++
			}
		}
		if tc.n > minBeyond && beyond < minBeyond {
			t.Errorf("tail(n=%d, q=%v) leaves %d samples beyond, want >= %d", tc.n, tc.q, beyond, minBeyond)
		}
	}
	if v, used := tail(nil, 0.99); v != 0 || used != 0 {
		t.Errorf("tail of nothing = %v, %v", v, used)
	}
}

func TestWindowedTailIgnoresOneBadWindow(t *testing.T) {
	// Three windows of 1000; the middle one holds a stall.
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 1000; i < 1100; i++ {
		xs[i] = 500
	}
	v, used := windowedTail(xs, 0.99)
	if v != 1 || used != 0.99 {
		t.Errorf("windowedTail = %v at %v, want 1 at 0.99", v, used)
	}
	// Below two windows' worth it is the plain tail.
	v, _ = windowedTail(xs[:1500], 0.99)
	if v != 500 {
		t.Errorf("windowedTail over 1500 samples = %v, want the plain tail 500", v)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}

func TestMaxRateInterpolates(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rungs []rung
		want  float64
	}{
		{"limit crossed between rungs 2 and 3",
			[]rung{{rate: 100, headroom: 0.2}, {rate: 200, headroom: 0.5}, {rate: 600, headroom: 1.5}},
			200 + 400*0.5/1.0},
		{"saturated top rung reports its throughput",
			[]rung{{rate: 100, headroom: 0.2}, {rate: 200, headroom: 0.5}, {rate: 600, headroom: 9, throughput: 450, saturated: true}},
			450},
		{"saturated throughput is floored at the last passing rate",
			[]rung{{rate: 100, headroom: 0.2}, {rate: 200, headroom: 0.5}, {rate: 600, headroom: 9, throughput: 150, saturated: true}},
			200},
		{"limit crossed between rungs 1 and 2",
			[]rung{{rate: 100, headroom: 0.5}, {rate: 200, headroom: 3}, {rate: 600, headroom: 9}},
			100 + 100*0.5/2.5},
		{"lowest rung already fails",
			[]rung{{rate: 100, headroom: 4}, {rate: 200, headroom: 8}, {rate: 600, headroom: 20}},
			25},
		{"every rung passes: the top rate is a floor",
			[]rung{{rate: 100, headroom: 0.1}, {rate: 200, headroom: 0.2}, {rate: 600, headroom: 0.9}},
			600},
		{"a rung exactly at its limit passes",
			[]rung{{rate: 100, headroom: 0.1}, {rate: 200, headroom: 1}, {rate: 600, headroom: 3}},
			200},
	} {
		if got := maxRate(tc.rungs); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: maxRate = %v, want %v", tc.name, got, tc.want)
		}
	}
}
