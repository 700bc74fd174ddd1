// Command bench is the repository's one pipeline benchmark. It assembles
// the real stack in-process (collect.New and rest.Serve), drives it over
// loopback TCP and HTTP from a seeded generator, checks the answers, and
// prints every metric BENCHMARK.json names. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// manifest is BENCHMARK.json: the benchmark prints exactly the metrics
// it lists, so the two cannot drift apart.
type manifest struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// result is what one run of one workload reports.
type result struct {
	workload  string
	correct   bool
	attempted int64
	failed    int64
	m         map[string]float64
	samples   map[string]int // sample count behind a median
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (empty: all four, as a table)")
		seed    = flag.Uint64("seed", 42, "generator seed")
		seconds = flag.Float64("seconds", 0, "measured window per run (0: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		repeat  = flag.Int("repeat", 1, "run the suite this often and print the differences")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace == 1, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds float64, traced bool, repeat int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if seconds == 0 {
		seconds = float64(mf.RunSeconds)
	}
	window := time.Duration(seconds * float64(time.Second))
	fmt.Fprintf(os.Stderr, "machine: %d cores, GOMAXPROCS %d, %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	// One named workload is the driver's call: one run, traced or not,
	// and failed operations are reported, not an error. Without a name the
	// whole suite runs and anything amiss fails it.
	ws, modes, strict := workloads, []bool{false}, true
	if name != "" {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		ws, modes, strict = []workload{*w}, []bool{traced}, false
	} else if traced {
		modes = append(modes, true)
	}
	return suite(mf, ws, modes, strict, seed, window, repeat)
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// print writes the metrics by name with their units, then the result
// object, which holds the metrics of defs, as the last line. An untraced
// run also prints, above the object, the per-layer medians it measured.
func (res *result) print(defs, also []metricDef) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]mv{}}
	line := func(d metricDef, v float64) {
		n := ""
		if c, ok := res.samples[d.Name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Printf("%-18s %-36s %14.6g %s%s\n", res.workload, d.Name, v, d.Unit, n)
	}
	for _, d := range defs {
		v, ok := res.m[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s of BENCHMARK.json was not measured", res.workload, d.Name)
		}
		out.Metrics[d.Name] = mv{v, d.Unit}
		line(d, v)
	}
	for _, d := range also {
		if _, ok := res.samples[d.Name]; ok {
			line(d, res.m[d.Name])
		}
	}
	js, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", js)
	return nil
}

// suite runs the workloads repeat times in each mode (false: untraced,
// true: traced) and, repeated, prints per (metric, workload) every value
// and the spread.
func suite(mf manifest, ws []workload, modes []bool, strict bool, seed uint64, window time.Duration, repeat int) error {
	type key struct{ metric, workload string }
	vals := map[key][]float64{}
	defs := map[string]metricDef{}
	bad := false
	for rep := 0; rep < repeat; rep++ {
		for i := range ws {
			for _, traced := range modes {
				res, err := runOnce(&ws[i], seed, window, traced)
				if err != nil {
					return err
				}
				list, also := mf.EndToEnd, mf.PerLayer
				if traced {
					list, also = mf.PerLayer, nil
				}
				if err := res.print(list, also); err != nil {
					return err
				}
				for _, d := range list {
					k := key{d.Name, res.workload}
					vals[k] = append(vals[k], res.m[d.Name])
					defs[d.Name] = d
				}
				bad = bad || !res.correct || (strict && res.failed > 0)
			}
		}
	}
	if repeat > 1 {
		keys := make([]key, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].workload != keys[j].workload {
				return keys[i].workload < keys[j].workload
			}
			return keys[i].metric < keys[j].metric
		})
		fmt.Printf("\n%-18s %-36s %s\n", "workload", "metric", "values, relative difference (max-min)/min, bound")
		for _, k := range keys {
			v := vals[k]
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = min(lo, x), max(hi, x)
			}
			diff, flag := 0.0, ""
			if lo > 0 {
				diff = (hi - lo) / lo
			}
			if b := defs[k.metric].Bound; b > 0 {
				flag = fmt.Sprintf("  bound %.2f", b)
				if diff > b {
					flag += "  MISSED"
					bad = true
				}
			}
			vs := ""
			for _, x := range v {
				vs += fmt.Sprintf(" %-12.6g", x)
			}
			fmt.Printf("%-18s %-36s%s  %.4f%s\n", k.workload, k.metric, vs, diff, flag)
		}
	}
	if bad {
		return fmt.Errorf("a correctness check failed, or in the suite an operation or a repeatability bound")
	}
	return nil
}
