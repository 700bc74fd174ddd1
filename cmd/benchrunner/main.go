// Command benchrunner regenerates every figure of the paper's evaluation
// (§VI) and the in-text footprint numbers, printing paper-style tables
// and optionally writing CSV series for plotting.
//
// Usage:
//
//	benchrunner -exp all            # everything (several minutes)
//	benchrunner -exp fig5 -quick    # one experiment, scaled down
//	benchrunner -exp fig6 -out results/
//
// Experiments:
//
//	fig5       Query Engine overhead heatmaps (absolute & relative mode)
//	fig6       online power prediction (time series + error profile)
//	fig7       per-job CPI deciles through the perfmetrics->persyst pipeline
//	fig8       fleet clustering on 2-week aggregates
//	footprint  Pusher CPU/memory footprint
//
// The gated pipeline benchmark lives in ./bench (see BENCHMARK.json).
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"github.com/dcdb/wintermute/internal/experiments"
	_ "github.com/dcdb/wintermute/internal/plugins/all"
)

func main() {
	log.SetFlags(0)
	exp := flag.String("exp", "all", "experiment: all, fig5, fig6, fig7, fig8, footprint")
	quick := flag.Bool("quick", false, "use scaled-down configurations")
	out := flag.String("out", "", "directory for CSV output (optional)")
	flag.Parse()

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatalf("creating output dir: %v", err)
		}
	}
	run := func(name string, f func(quick bool, out string) error) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		fmt.Printf("==> %s\n", name)
		if err := f(*quick, *out); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("==> %s done in %s\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	run("fig5", runFig5)
	run("fig6", runFig6)
	run("fig7", runFig7)
	run("fig8", runFig8)
	run("footprint", runFootprint)
}

func writeCSV(dir, name string, header []string, rows [][]string) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

func maxBound(res *experiments.Fig5Result) float64 {
	max := 0.0
	for _, cells := range [][]experiments.Fig5Cell{res.Absolute, res.Relative} {
		for _, c := range cells {
			if c.BoundPc > max {
				max = c.BoundPc
			}
		}
	}
	return max
}

func runFig5(quick bool, out string) error {
	cfg := experiments.DefaultFig5()
	if quick {
		cfg = experiments.QuickFig5()
	}
	res, err := experiments.RunFig5(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("baseline kernel runtime: %s\n", res.Baseline.Round(time.Millisecond))
	var rows [][]string
	find := func(cells []experiments.Fig5Cell, q, w int) experiments.Fig5Cell {
		for _, c := range cells {
			if c.Queries == q && c.WindowMs == w {
				return c
			}
		}
		return experiments.Fig5Cell{}
	}
	for _, mode := range []struct {
		name  string
		abs   bool
		cells []experiments.Fig5Cell
	}{
		{"relative (O(1) views)", false, res.Relative},
		{"absolute (O(log N) binary search)", true, res.Absolute},
	} {
		fmt.Printf("\nFigure 5 — %s mode\n", mode.name)
		fmt.Printf("analytical overhead bound %% (operator tick cost / interval / cores):\n")
		fmt.Printf("%-14s", "window\\queries")
		for _, q := range cfg.Queries {
			fmt.Printf("%9d", q)
		}
		fmt.Println()
		for _, w := range cfg.WindowsMs {
			fmt.Printf("%-14s", fmt.Sprintf("%dms", w))
			for _, q := range cfg.Queries {
				c := find(mode.cells, q, w)
				fmt.Printf("%9.4f", c.BoundPc)
				rows = append(rows, []string{mode.name, strconv.Itoa(q), strconv.Itoa(w),
					f3(c.OverheadPc), f3(c.BoundPc), strconv.FormatInt(c.TickCost.Microseconds(), 10)})
			}
			fmt.Println()
		}
		fmt.Printf("measured wall-clock overhead %% (noisy on shared machines):\n")
		fmt.Printf("%-14s", "window\\queries")
		for _, q := range cfg.Queries {
			fmt.Printf("%9d", q)
		}
		fmt.Println()
		for _, w := range cfg.WindowsMs {
			fmt.Printf("%-14s", fmt.Sprintf("%dms", w))
			for _, q := range cfg.Queries {
				c := find(mode.cells, q, w)
				fmt.Printf("%9.2f", c.OverheadPc)
			}
			fmt.Println()
		}
	}
	fmt.Printf("\nmax analytical bound across both modes: %.4f%% (paper: measured overhead below 0.5%% in all cells)\n",
		maxBound(res))
	return writeCSV(out, "fig5_overhead.csv",
		[]string{"mode", "queries", "window_ms", "overhead_pct", "bound_pct", "tick_cost_us"}, rows)
}

func runFig6(quick bool, out string) error {
	intervals := []int{250, 125, 500} // paper's main + in-text variants
	if quick {
		intervals = []int{250}
	}
	for _, ms := range intervals {
		cfg := experiments.DefaultFig6()
		if quick {
			cfg = experiments.QuickFig6()
		}
		cfg.IntervalMs = ms
		res, err := experiments.RunFig6(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("Figure 6 — power prediction @%dms: avg relative error %.1f%% "+
			"(paper: 6.2%% @250ms, 10.4%% @125ms, 6.7%% @500ms)\n",
			ms, 100*res.AvgRelError)
		if ms == 250 {
			var rows [][]string
			for _, p := range res.Series {
				rows = append(rows, []string{f2(p.T), f2(p.Real), f2(p.Pred)})
			}
			if err := writeCSV(out, "fig6a_timeseries.csv",
				[]string{"t_s", "power_w", "predicted_w"}, rows); err != nil {
				return err
			}
			fmt.Println("\nFigure 6b — relative error by power bin")
			fmt.Printf("%12s %12s %12s %8s\n", "power bin W", "rel. error", "probability", "count")
			rows = rows[:0]
			for _, b := range res.Bins {
				if b.Count == 0 {
					continue
				}
				fmt.Printf("%5.0f-%-6.0f %12.3f %12.4f %8d\n",
					b.PowerLo, b.PowerHi, b.MeanRelErr, b.Probability, b.Count)
				rows = append(rows, []string{f2(b.PowerLo), f2(b.PowerHi),
					f3(b.MeanRelErr), f3(b.Probability), strconv.Itoa(b.Count)})
			}
			if err := writeCSV(out, "fig6b_error_bins.csv",
				[]string{"power_lo", "power_hi", "mean_rel_err", "probability", "count"}, rows); err != nil {
				return err
			}
		}
	}
	return nil
}

func runFig7(quick bool, out string) error {
	cfg := experiments.DefaultFig7()
	if quick {
		cfg = experiments.QuickFig7()
	}
	res, err := experiments.RunFig7(cfg)
	if err != nil {
		return err
	}
	apps := make([]string, 0, len(res.PerApp))
	for app := range res.PerApp {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	var rows [][]string
	for _, app := range apps {
		series := res.PerApp[app]
		fmt.Printf("Figure 7 — %s: %d time points; sample rows (t, dec0, dec2, dec5, dec8, dec10):\n",
			app, len(series))
		step := len(series) / 6
		if step == 0 {
			step = 1
		}
		// An odd stride avoids aliasing with periodic workloads (Kripke's
		// iteration ramp would otherwise sample at a fixed phase).
		if step%2 == 0 {
			step++
		}
		for i := 0; i < len(series); i += step {
			r := series[i]
			fmt.Printf("  t=%5.0fs  %6.2f %6.2f %6.2f %6.2f %6.2f\n",
				r.T, r.Deciles[0], r.Deciles[2], r.Deciles[5], r.Deciles[8], r.Deciles[10])
		}
		for _, r := range series {
			row := []string{app, f2(r.T)}
			for d := 0; d <= 10; d++ {
				row = append(row, f3(r.Deciles[d]))
			}
			rows = append(rows, row)
		}
	}
	header := []string{"app", "t_s"}
	for d := 0; d <= 10; d++ {
		header = append(header, fmt.Sprintf("dec%d", d))
	}
	return writeCSV(out, "fig7_cpi_deciles.csv", header, rows)
}

func runFig8(quick bool, out string) error {
	cfg := experiments.DefaultFig8()
	if quick {
		cfg = experiments.QuickFig8()
	}
	res, err := experiments.RunFig8(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 8 — fleet clustering of %d nodes:\n", len(res.Points))
	fmt.Printf("  clusters found: %d (paper: 3)\n", res.NumClusters)
	fmt.Printf("  outliers: %d, implanted anomalies flagged: %d\n", res.Outliers, res.ImplantFlagged)
	fmt.Printf("  corr(power, temp) = %.3f (paper: strong linear trend)\n", res.CorrPowerTemp)
	fmt.Printf("  corr(power, idle) = %.3f (negative: idling nodes draw less)\n", res.CorrPowerIdle)
	// Per-cluster summary.
	type agg struct {
		n                 int
		power, temp, idle float64
	}
	byLabel := map[int]*agg{}
	for _, p := range res.Points {
		a := byLabel[p.Label]
		if a == nil {
			a = &agg{}
			byLabel[p.Label] = a
		}
		a.n++
		a.power += p.Power
		a.temp += p.Temp
		a.idle += p.IdleTime
	}
	labels := make([]int, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	fmt.Printf("  %-8s %6s %10s %10s %14s\n", "cluster", "nodes", "avg power", "avg temp", "avg idle [s]")
	for _, l := range labels {
		a := byLabel[l]
		name := strconv.Itoa(l)
		if l == -1 {
			name = "outlier"
		}
		fmt.Printf("  %-8s %6d %10.1f %10.2f %14.0f\n",
			name, a.n, a.power/float64(a.n), a.temp/float64(a.n), a.idle/float64(a.n))
	}
	var rows [][]string
	for _, p := range res.Points {
		rows = append(rows, []string{p.Node, f2(p.Power), f2(p.Temp), f2(p.IdleTime),
			strconv.Itoa(p.Label), strconv.FormatBool(p.Implant)})
	}
	return writeCSV(out, "fig8_clusters.csv",
		[]string{"node", "power_w", "temp_c", "idle_s", "label", "implanted"}, rows)
}

func runFootprint(quick bool, out string) error {
	cfg := experiments.DefaultFootprint()
	if quick {
		cfg.NumSensors = 200
		cfg.Duration = 3 * time.Second
	}
	res, err := experiments.RunFootprint(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Pusher footprint (tester plugin, %d sensors, %d queries/interval):\n",
		cfg.NumSensors, cfg.Queries)
	fmt.Printf("  heap alloc: %.1f MB, runtime sys: %.1f MB (paper: < 25 MB)\n",
		res.HeapAllocMB, res.SysMB)
	if res.CPUPercent >= 0 {
		fmt.Printf("  process CPU: %.2f%% total, %.2f%% per core (paper: peaks at 1.2%% per core)\n",
			res.CPUPercent, res.PerCorePct)
	}
	fmt.Printf("  goroutines: %d, samples: %d (%.0f/s)\n",
		res.Goroutines, res.SamplesTotal, res.SamplesPerSec)
	return writeCSV(out, "footprint.csv",
		[]string{"heap_mb", "sys_mb", "cpu_pct", "per_core_pct", "samples_per_sec"},
		[][]string{{f2(res.HeapAllocMB), f2(res.SysMB), f2(res.CPUPercent),
			f2(res.PerCorePct), f2(res.SamplesPerSec)}})
}
