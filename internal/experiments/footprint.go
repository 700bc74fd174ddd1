package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/plugins/tester"
	"github.com/dcdb/wintermute/internal/pusher"
	"github.com/dcdb/wintermute/internal/samplers"
)

// FootprintConfig parameterises experiment E5: the in-text resource
// footprint of a Pusher running monitoring plus ODA (paper §VI-A:
// "Average per-core CPU load of the Pusher is mostly uniform and peaks at
// 1.2%. Likewise, memory usage never exceeded 25MB").
type FootprintConfig struct {
	// NumSensors matches the paper's tester monitoring plugin (1000).
	NumSensors int
	// Queries per operator interval.
	Queries int
	// SampleInterval for sampling and the tester operator (paper: 1 s).
	SampleInterval time.Duration
	// Duration of the measurement window (wall clock).
	Duration time.Duration
}

// DefaultFootprint mirrors the paper's heaviest tester cell.
func DefaultFootprint() FootprintConfig {
	return FootprintConfig{
		NumSensors:     1000,
		Queries:        1000,
		SampleInterval: time.Second,
		Duration:       10 * time.Second,
	}
}

// FootprintResult reports the Pusher's resource usage.
type FootprintResult struct {
	HeapAllocMB   float64
	SysMB         float64
	Goroutines    int
	CPUPercent    float64 // process CPU over the window; -1 if unavailable
	PerCorePct    float64 // CPUPercent / NumCPU; -1 if unavailable
	SamplesTotal  uint64
	SamplesPerSec float64
}

// RunFootprint stands up a full Pusher (tester sampler + tester operator
// on live tickers) and measures heap, goroutines and process CPU across
// the window.
func RunFootprint(cfg FootprintConfig) (*FootprintResult, error) {
	p, err := pusher.New(pusher.Config{Name: "footprint"})
	if err != nil {
		return nil, err
	}
	if err := p.AddSampler(samplers.NewTester("t", "/node/", cfg.NumSensors, cfg.SampleInterval)); err != nil {
		return nil, err
	}
	// Warm the caches under a simulated clock.
	for ts := time.Now().Add(-60 * time.Second); ts.Before(time.Now()); ts = ts.Add(cfg.SampleInterval) {
		p.SampleOnce(ts)
	}
	inputs := make([]string, 0, cfg.NumSensors)
	for i := 0; i < cfg.NumSensors; i++ {
		inputs = append(inputs, fmt.Sprintf("test%d", i))
	}
	raw, err := json.Marshal(tester.Config{
		OperatorConfig: core.OperatorConfig{
			Name:       "tester-op",
			Inputs:     inputs,
			Outputs:    []string{"tester-readings"},
			Unit:       "/node/",
			IntervalMs: int(cfg.SampleInterval / time.Millisecond),
		},
		Queries:  cfg.Queries,
		WindowMs: 50000,
	})
	if err != nil {
		return nil, err
	}
	if err := p.Manager.LoadPlugin("tester", raw); err != nil {
		return nil, err
	}
	startSamples := p.Samples()
	cpu0, cpuOK := processCPUSeconds()
	start := time.Now()
	p.Start()
	time.Sleep(cfg.Duration)
	res := &FootprintResult{Goroutines: runtime.NumGoroutine()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.Close()
	elapsed := time.Since(start).Seconds()
	res.HeapAllocMB = float64(ms.HeapAlloc) / (1 << 20)
	res.SysMB = float64(ms.Sys) / (1 << 20)
	res.SamplesTotal = p.Samples() - startSamples
	res.SamplesPerSec = float64(res.SamplesTotal) / elapsed
	res.CPUPercent = -1
	res.PerCorePct = -1
	if cpu1, ok := processCPUSeconds(); ok && cpuOK {
		res.CPUPercent = 100 * (cpu1 - cpu0) / elapsed
		res.PerCorePct = res.CPUPercent / float64(runtime.NumCPU())
	}
	return res, nil
}

// processCPUSeconds reads utime+stime of the current process from
// /proc/self/stat (Linux). ok is false elsewhere.
func processCPUSeconds() (float64, bool) {
	b, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0, false
	}
	// Skip past the parenthesised command, which may contain spaces.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 || i+2 > len(s) {
		return 0, false
	}
	fields := strings.Fields(s[i+2:])
	// Fields after the command: state is index 0, utime is index 11,
	// stime index 12 (stat fields 14 and 15, 1-based).
	if len(fields) < 13 {
		return 0, false
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	const hz = 100 // USER_HZ on effectively all Linux systems
	return (utime + stime) / hz, true
}
