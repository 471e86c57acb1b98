package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to be reported at all.
const minBeyond = 10

// maxTailQ is the highest percentile a tail metric reports.
const maxTailQ = 0.99

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample (the mean of the middle two for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail reports the highest nearest-rank percentile, at most maxTailQ,
// that still has at least minBeyond samples strictly above its rank. q is
// the percentile actually reported (0.99 once there are 1100 samples;
// lower for smaller samples). ok is false when there are too few samples
// for any percentile to qualify.
func tail(xs []float64) (v, q float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	s := sorted(xs)
	idx := int(math.Ceil(maxTailQ*float64(n))) - 1 // nearest-rank p99
	if limit := n - 1 - minBeyond; idx > limit {
		idx = limit
	}
	return s[idx], float64(idx+1) / float64(n), true
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// fingerprint is an order-insensitive digest of a multiset of rows: the
// row count plus the wrapping sum of a mixed 64-bit hash of each row's
// encoding. Two answers agree iff (with overwhelming probability) they
// hold the same rows the same number of times, in any order.
type fingerprint struct {
	Rows int    `json:"rows"`
	Sum  uint64 `json:"sum,string"` // a string, so JSON readers keep all 64 bits
}

// add folds one encoded row into the digest.
func (f *fingerprint) add(row []byte) {
	h := fnv.New64a()
	h.Write(row)
	f.Sum += mix64(h.Sum64())
	f.Rows++
}

// addStrings folds a row given as fields, separated unambiguously.
func (f *fingerprint) addStrings(fields ...string) {
	var b []byte
	for _, s := range fields {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	f.add(b)
}

// mix64 is the splitmix64 finalizer; it spreads FNV's weak low bits so a
// sum of hashes is a sound multiset digest.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
