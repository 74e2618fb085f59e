//go:build !linux

package main

import "os"

// loadavg is unavailable off Linux; the noise guard then never fires.
func loadavg() [3]float64 { return [3]float64{} }

// maxRSSMB is unavailable off Linux.
func maxRSSMB(*os.ProcessState) float64 { return 0 }
