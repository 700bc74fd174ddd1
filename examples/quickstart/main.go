// Quickstart: the smallest complete Wintermute deployment.
//
// It builds a four-node sensor tree, samples simulated power sensors,
// instantiates an aggregator operator from ONE pattern-unit configuration
// block (one unit per rack, summing the node powers below it — the Unit
// System of paper §III), drives a few computation intervals and prints
// the resulting rack-power roll-up.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/plugins/aggregator"
	_ "github.com/dcdb/wintermute/internal/plugins/all"
	"github.com/dcdb/wintermute/internal/pusher"
	"github.com/dcdb/wintermute/internal/samplers"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/sim/hardware"
	"github.com/dcdb/wintermute/internal/sim/workload"
)

func main() {
	log.SetFlags(0)
	// A standalone Pusher: sensor tree + caches + Wintermute manager.
	p, err := pusher.New(pusher.Config{Name: "quickstart"})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()

	// Two racks with two nodes each; every node runs a different app.
	apps := []string{"hpl", "lammps", "amg", "idle"}
	i := 0
	for _, rack := range []string{"r01", "r02"} {
		for _, node := range []string{"n01", "n02"} {
			path := sensor.Root.JoinNode(rack).JoinNode(node)
			hw := hardware.NewNode(hardware.Config{Cores: 4, Seed: int64(i)})
			hw.SetApp(workload.MustNew(apps[i], int64(i), 3600), 0)
			if err := p.AddSampler(samplers.NewPowerSim(hw, path, time.Second)); err != nil {
				log.Fatal(err)
			}
			i++
		}
	}

	// ONE configuration block instantiates one unit per rack: the pattern
	// <bottomup>power collects all node power sensors below each rack and
	// <topdown>rack-power places the output on the rack itself.
	cfg, _ := json.Marshal(aggregator.Config{
		OperatorConfig: core.OperatorConfig{
			Name:       "rack-power",
			Inputs:     []string{"<bottomup>power"},
			Outputs:    []string{"<topdown>rack-power"},
			IntervalMs: 1000,
		},
		Operation: aggregator.Sum,
	})
	if err := p.Manager.LoadPlugin("aggregator", cfg); err != nil {
		log.Fatal(err)
	}
	op, _ := p.Manager.Operator("rack-power")
	fmt.Printf("operator %q instantiated %d units from one config block:\n",
		op.Name(), len(op.Units()))
	for _, u := range op.Units() {
		fmt.Printf("  %s\n", u)
	}

	// Drive 30 simulated seconds: sample, then compute.
	for t := 0; t < 30; t++ {
		now := time.Unix(int64(t), 0)
		p.SampleOnce(now)
		if err := p.TickOnce(now); err != nil && t > 2 {
			log.Fatal(err)
		}
	}

	fmt.Println("\nrack power roll-up (sum of node powers below each rack):")
	for _, rack := range []sensor.Topic{"/r01/rack-power", "/r02/rack-power"} {
		if r, ok := p.QE.Latest(rack); ok {
			fmt.Printf("  %-18s %7.1f W\n", rack, r.Value)
		}
	}
	fmt.Println("\nper-node power (inputs the operator consumed):")
	for _, tp := range p.Nav.AllSensors() {
		if tp.Name() != "power" {
			continue
		}
		r, _ := p.QE.Latest(tp)
		fmt.Printf("  %-22s %7.1f W\n", tp, r.Value)
	}
}
