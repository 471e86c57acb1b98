package main

import "time"

// clock abstracts time for the open-loop generator, so tests can make it
// run late deterministically.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// opSample is one open-loop operation: when it was due, when the
// generator actually issued it, and when it completed.
type opSample struct {
	due, issued, done time.Time
	err               error
}

// latency is measured from the due time, so a stalled operation also
// charges the wait it imposed on every operation queued behind it.
func (s opSample) latency() time.Duration { return s.done.Sub(s.due) }

// lateness is how far behind schedule the generator issued the operation.
func (s opSample) lateness() time.Duration { return s.issued.Sub(s.due) }

// openLoop issues op(i) at start + i*interval for every due time before
// end, regardless of whether earlier operations ran long: a late
// generator issues immediately and the backlog shows in latency.
func openLoop(c clock, start time.Time, interval time.Duration, end time.Time, op func(i int) error) []opSample {
	var out []opSample
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return out
		}
		c.SleepUntil(due)
		issued := c.Now()
		err := op(i)
		out = append(out, opSample{due: due, issued: issued, done: c.Now(), err: err})
	}
}
