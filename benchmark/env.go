package main

import (
	"runtime"
	"syscall"
)

// envRecord describes the machine and settings a result was measured under.
// CPU model and cache sizes come from the CPUID instruction (amd64), so the
// benchmark reads no file outside its checkout.
type envRecord struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	L2Bytes    int64   `json:"l2_bytes"`
	L3Bytes    int64   `json:"l3_bytes"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	ServeRate  float64 `json:"serve_arrivals_per_s,omitempty"`
}

func environment(cfg config) envRecord {
	model, l2, l3 := cpuInfo()
	env := envRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   model,
		L2Bytes:    l2,
		L3Bytes:    l3,
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
	}
	if cfg.workload == "serve-mix" {
		env.ServeRate = serveRate
	}
	return env
}

// rssPeakBytes is the process's maximum resident set size so far.
func rssPeakBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}
