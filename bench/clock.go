package main

import "time"

// The benchmark measures host wall time, which the rest of the module
// is forbidden to read (simlint's walltime analyzer: simulated time is
// the only clock inside the program). Every wall-clock read in this
// package goes through the two helpers below, so the suppression stays
// in one place.

// now reads the monotonic wall clock.
func now() time.Time {
	return time.Now() //lint:allow walltime — the benchmark's one clock read
}

// pause sleeps between readiness polls of a spawned process.
func pause(d time.Duration) {
	time.Sleep(d) //lint:allow walltime — polling a child process
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
