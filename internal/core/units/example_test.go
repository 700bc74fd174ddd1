package units_test

import (
	"fmt"

	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
)

// ExampleParse shows the pattern-expression forms of paper §III-C.
func ExampleParse() {
	for _, expr := range []string{
		"<topdown+1>power",
		"<bottomup, filter cpu>cpu-cycles",
		"<bottomup-1>healthy",
	} {
		p, err := units.Parse(expr)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Printf("%s -> anchor=%s offset=%d name=%s\n", expr, p.Anchor, p.Offset, p.Name)
	}
	// Output:
	// <topdown+1>power -> anchor=topdown offset=1 name=power
	// <bottomup, filter cpu>cpu-cycles -> anchor=bottomup offset=0 name=cpu-cycles
	// <bottomup-1>healthy -> anchor=bottomup offset=1 name=healthy
}

// ExampleTemplate_Instantiate reproduces the paper's walk-through: one
// pattern-unit block binding CPU counters and chassis power to a
// compute-node health model.
func ExampleTemplate_Instantiate() {
	nv := navigator.New()
	topics := []sensor.Topic{
		"/r03/c02/power",
		"/r03/c02/s02/cpu0/cpu-cycles", "/r03/c02/s02/cpu0/cache-misses",
		"/r03/c02/s02/cpu1/cpu-cycles", "/r03/c02/s02/cpu1/cache-misses",
	}
	if err := nv.AddSensors(topics); err != nil {
		fmt.Println("error:", err)
		return
	}
	tpl, err := units.NewTemplate(
		[]string{
			"<topdown+1>power",
			"<bottomup, filter cpu>cpu-cycles",
			"<bottomup, filter cpu>cache-misses",
		},
		[]string{"<bottomup-1>healthy"},
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	us, err := tpl.Instantiate(nv, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, u := range us {
		fmt.Println(u)
	}
	// Output:
	// /r03/c02/s02/ in[/r03/c02/power /r03/c02/s02/cpu0/cpu-cycles /r03/c02/s02/cpu1/cpu-cycles /r03/c02/s02/cpu0/cache-misses /r03/c02/s02/cpu1/cache-misses] out[/r03/c02/s02/healthy]
}
