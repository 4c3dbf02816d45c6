package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is num/den, or 0 when there is no base to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// now and since are the benchmark's only wall-clock reads.
func now() time.Time {
	//ocsml:wallclock every figure the benchmark reports is elapsed real time
	return time.Now()
}

func since(t time.Time) time.Duration { return now().Sub(t) }
