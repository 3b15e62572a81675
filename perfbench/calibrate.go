package main

import "time"

// Host speed calibration.
//
// The host this benchmark runs on is shared: its speed drifts by a
// quarter or more over minutes as neighbours come and go, and that
// drift is a large part of the spread of a host-clock metric between
// runs. A fixed integer loop, timed just before each episode, tracks
// the drift: it touches no memory and runs none of the program's code,
// so no change to the program moves it. Each episode's host seconds are
// scaled by refCalibrationS over the loop's time, so they read as
// seconds on a host whose loop takes refCalibrationS.

// calibrationIters is the loop's length.
const calibrationIters = 40_000_000

// refCalibrationS is the loop's time on the reference host (2-vCPU
// Xeon VM, go1.24).
const refCalibrationS = 0.1

// calibrationSink keeps the loop's result alive.
var calibrationSink uint64

// calibrate times the calibration loop once and returns its seconds.
func calibrate() float64 {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calibrationIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibrationSink += x
	return time.Since(t).Seconds()
}
