// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives a set of cooperative processes (Proc), each backed by a
// goroutine, with a strict hand-off discipline: at any instant exactly one
// goroutine — the kernel or a single process — is running. Network models,
// storage models, and the MPI layer are built on top of this kernel, so the
// whole simulation is deterministic and data-race-free without locks.
package sim

import "fmt"

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation. It is also used for durations.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Seconds converts a floating-point number of seconds to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Millis converts a floating-point number of milliseconds to a Time.
func Millis(ms float64) Time { return Time(ms * float64(Millisecond)) }

// Micros converts a floating-point number of microseconds to a Time.
func Micros(us float64) Time { return Time(us * float64(Microsecond)) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with adaptive units.
func (t Time) String() string {
	if t < 0 {
		// Format the magnitude as unsigned: negating the most negative Time
		// overflows back to itself, but its unsigned negation is exact.
		return "-" + formatNanos(-uint64(t))
	}
	return formatNanos(uint64(t))
}

// formatNanos formats a non-negative duration of ns nanoseconds with
// adaptive units.
func formatNanos(ns uint64) string {
	switch {
	case ns < uint64(Microsecond):
		return fmt.Sprintf("%dns", ns)
	case ns < uint64(Millisecond):
		return fmt.Sprintf("%.3gus", float64(ns)/float64(Microsecond))
	case ns < uint64(Second):
		return fmt.Sprintf("%.4gms", float64(ns)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6gs", float64(ns)/float64(Second))
	}
}
