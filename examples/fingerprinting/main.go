// Application fingerprinting: the "application fingerprinting" class of
// the paper's ODA taxonomy (Figure 1) as a Wintermute operator.
//
// Two simulated nodes run labelled jobs (LAMMPS and Kripke alternating);
// the fingerprint operator learns a random-forest classifier over windows
// of derived performance metrics, then recognises which application is
// running from the metrics alone — the building block for
// history-correlated scheduling decisions.
//
// Run with:
//
//	go run ./examples/fingerprinting
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/navigator"
	_ "github.com/dcdb/wintermute/internal/plugins/all"
	"github.com/dcdb/wintermute/internal/plugins/fingerprint"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/sim/hardware"
	"github.com/dcdb/wintermute/internal/sim/jobs"
	"github.com/dcdb/wintermute/internal/sim/workload"
)

func main() {
	log.SetFlags(0)
	nav := navigator.New()
	for _, s := range []string{"cpi", "miss-rate"} {
		if err := nav.AddSensor(sensor.Topic("/r01/n01/").Join(s)); err != nil {
			log.Fatal(err)
		}
	}
	caches := cache.NewSet()
	qe := core.NewQueryEngine(nav, caches, nil)
	sink := core.NewCacheSink(caches, nav, 64, time.Second)
	table := jobs.NewTable()

	node := hardware.NewNode(hardware.Config{Cores: 8, Seed: 7})
	path := sensor.Topic("/r01/n01/")

	op, err := fingerprint.New(fingerprint.Config{
		OperatorConfig: core.OperatorConfig{
			Name:    "fingerprint",
			Inputs:  []string{"cpi", "miss-rate"},
			Outputs: []string{"app-class", "app-conf"},
			Unit:    string(path),
		},
		TrainingSetSize: 150,
		Trees:           16,
		Seed:            3,
	}, qe, core.Env{Jobs: table})
	if err != nil {
		log.Fatal(err)
	}

	var prevCy, prevIn, prevMs float64
	step := func(t int64) {
		ns := t * int64(time.Second)
		node.Advance(ns)
		var cy, in, ms float64
		for c := 0; c < 8; c++ {
			c1, i1, m1, _, _ := node.CoreCounters(c)
			cy, in, ms = cy+c1, in+i1, ms+m1
		}
		cpi := 0.0
		if in > prevIn {
			cpi = (cy - prevCy) / (in - prevIn)
		}
		sink.PushBatch([]core.Output{
			{Topic: path.Join("cpi"), Reading: sensor.Reading{Value: cpi, Time: ns}},
			{Topic: path.Join("miss-rate"), Reading: sensor.Reading{Value: ms - prevMs, Time: ns}},
		})
		prevCy, prevIn, prevMs = cy, in, ms
		if t > 2 {
			if err := core.Tick(op, qe, sink, time.Unix(0, ns)); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Training: alternate labelled jobs.
	fmt.Println("training on labelled LAMMPS/Kripke phases...")
	t := int64(0)
	for round := 0; round < 4 && !op.Trained(); round++ {
		for _, app := range []string{"lammps", "kripke"} {
			id := table.Submit("user", []sensor.Topic{path}, t*int64(time.Second), (t+40)*int64(time.Second))
			j, _ := table.Job(id)
			j.Name = app
			table.Add(j)
			node.SetApp(workload.MustNew(app, t, 40), t*int64(time.Second))
			for end := t + 40; t < end; t++ {
				step(t)
			}
		}
	}
	if !op.Trained() {
		log.Fatal("training did not complete")
	}
	fmt.Printf("trained; classes: %v\n\n", op.Classes())

	// Recognition: run each app unlabelled and read the classification.
	for _, app := range []string{"kripke", "lammps"} {
		node.SetApp(workload.MustNew(app, t+1000, 30), t*int64(time.Second))
		for end := t + 30; t < end; t++ {
			step(t)
		}
		class, _ := qe.Latest(path.Join("app-class"))
		conf, _ := qe.Latest(path.Join("app-conf"))
		name := "unknown"
		if idx := int(class.Value); idx >= 0 && idx < len(op.Classes()) {
			name = op.Classes()[idx]
		}
		fmt.Printf("actually running %-8s -> recognised as %-8s (confidence %.0f%%)\n",
			app, name, 100*conf.Value)
	}
}
