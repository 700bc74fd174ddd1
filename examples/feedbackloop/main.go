// Feedback loop: the control-operator pattern of paper §IV-d — "control
// operators at the end of the pipeline that use processed data to tune
// system knobs" (the runtime-optimization class of the taxonomy).
//
// A node saturated by HPL exceeds a 150 W power budget. A controller
// operator inside the Pusher watches the power sensor and publishes a
// DVFS target as an ordinary output sensor; an actuator applies that
// sensor to the hardware knob. The loop settles near the budget.
//
// Run with:
//
//	go run ./examples/feedbackloop
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/navigator"
	_ "github.com/dcdb/wintermute/internal/plugins/all"
	"github.com/dcdb/wintermute/internal/plugins/controller"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/sim/hardware"
	"github.com/dcdb/wintermute/internal/sim/workload"
	"github.com/dcdb/wintermute/internal/store"
)

func main() {
	log.SetFlags(0)
	const budget = 150.0

	nav := navigator.New()
	caches := cache.NewSet()
	qe := core.NewQueryEngine(nav, caches, nil)
	sink := core.NewCacheSink(caches, nav, 256, time.Second)
	if err := nav.AddSensor("/r01/n01/power"); err != nil {
		log.Fatal(err)
	}

	node := hardware.NewNode(hardware.Config{Cores: 8, Seed: 42})
	node.SetApp(workload.MustNew("hpl", 1, 1e9), 0)

	op, err := controller.New(controller.Config{
		OperatorConfig: core.OperatorConfig{
			Name:       "powercap",
			Inputs:     []string{"power"},
			Outputs:    []string{"freq-target"},
			Unit:       "/r01/n01/",
			IntervalMs: 1000,
		},
		BudgetW: budget,
		Gain:    0.004,
	}, qe)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("HPL at full tilt, %g W budget, proportional DVFS controller:\n\n", budget)
	fmt.Printf("%6s %10s %12s\n", "t [s]", "power [W]", "freq knob")
	for t := int64(0); t <= 300; t++ {
		ns := t * int64(time.Second)
		now := time.Unix(0, ns)
		node.Advance(ns)
		sink.PushBatch([]core.Output{{Topic: "/r01/n01/power", Reading: sensor.Reading{Value: node.Power(), Time: ns}}})
		if err := core.Tick(op, qe, sink, now); err != nil {
			log.Fatal(err)
		}
		// The actuator: apply the published control sensor to the knob.
		if r, ok := qe.Latest("/r01/n01/freq-target"); ok {
			node.SetFreqScale(r.Value)
		}
		if t%30 == 0 {
			fmt.Printf("%6d %10.1f %12.3f\n", t, node.Power(), node.FreqScale())
		}
	}
	avg, _ := qe.AggregateRelative("/r01/n01/power", 60*time.Second).Value(store.AggAvg)
	fmt.Printf("\nlast-minute average power: %.1f W (budget %g W)\n", avg, budget)
}
