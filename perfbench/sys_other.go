//go:build !linux

package main

import (
	"errors"
	"time"
)

func platformCheck() error { return errors.New("perfbench needs Linux (getrusage and statfs)") }

func cpuTime() time.Duration { return 0 }

func peakRSS() int64 { return 0 }

func fsType(string) string { return "unknown" }
