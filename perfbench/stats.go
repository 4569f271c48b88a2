package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank returns the 1-based nearest-rank position of percentile p among n
// sorted samples: the smallest rank r with r >= p/100 * n.
func rank(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact product up a rank.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of xs; 0 for an
// empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// minBeyond is how many samples must lie above a reported percentile for
// it to describe the tail rather than a handful of outliers.
const minBeyond = 10

// tailPercentiles are the percentiles a timing's tail may be reported at,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// highestPercentile returns the highest of tailPercentiles that has at
// least minBeyond of n samples strictly beyond its rank, and false when
// even the median has fewer.
func highestPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// minSamplesFor is the smallest sample count at which percentile p has
// minBeyond samples beyond it (100 for p90).
func minSamplesFor(p float64) int {
	n := 1
	for n-rank(p, n) < minBeyond {
		n++
	}
	return n
}

// selfTime is a span's duration minus its children's: the time the
// span's own layer spent, with the layers it called taken out. Children
// are the spans whose Parent is parent.ID.
func selfTime(parent obs.Span, spans []obs.Span) time.Duration {
	self := parent.Dur
	for _, s := range spans {
		if s.Parent == parent.ID {
			self -= s.Dur
		}
	}
	return self
}

// share is part as a fraction of base; 0 when base is 0.
func share(part, base float64) float64 {
	if base == 0 {
		return 0
	}
	return part / base
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// deciles renders the 10th..90th percentiles of xs for a log line.
func deciles(xs []float64) string {
	var b strings.Builder
	for p := 10.0; p < 100; p += 10 {
		fmt.Fprintf(&b, " %.1f", percentile(xs, p))
	}
	return b.String()
}
