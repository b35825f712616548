package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the p-quantile (0 ≤ p ≤ 1) of an ascending slice by
// linear interpolation between order statistics. An empty slice yields 0.
func quantile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// percentile is quantile for a slice in any order, which it leaves alone.
func percentile(xs []float64, p float64) float64 { return quantile(sorted(xs), p) }

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// speedIndex is how fast the host ran during a block relative to the
// reference host the *RefMs constants were taken on: the geometric
// mean of the two kernels' speed-ups. Above 1 the host was faster than
// the reference, so timings are scaled up to what the reference host
// would have shown. A block with no kernel sample reads as 1.
func speedIndex(aluP50Ms, memP50Ms float64) float64 {
	if aluP50Ms <= 0 || memP50Ms <= 0 {
		return 1
	}
	return math.Sqrt((aluRefMs / aluP50Ms) * (memRefMs / memP50Ms))
}
