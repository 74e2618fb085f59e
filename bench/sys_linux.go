package main

import (
	"os"
	"syscall"
)

// loadavg returns the 1-, 5- and 15-minute load averages, read through
// sysinfo(2) rather than /proc so the benchmark reads nothing outside its
// checkout.
func loadavg() [3]float64 {
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) != nil {
		return [3]float64{}
	}
	const scale = 1 << 16 // SI_LOAD_SHIFT
	return [3]float64{float64(si.Loads[0]) / scale, float64(si.Loads[1]) / scale, float64(si.Loads[2]) / scale}
}

// maxRSSMB returns an exited child's peak resident set size in MiB.
func maxRSSMB(ps *os.ProcessState) float64 {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
