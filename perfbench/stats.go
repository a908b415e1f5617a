package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail estimate resting on fewer is noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs. It refuses, with an error, when fewer than minBeyond samples lie
// beyond the percentile's rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's resident-set high-water mark in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// formatList renders xs with three decimals, for a report note.
func formatList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, " ")
}
