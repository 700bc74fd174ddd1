package units

import (
	"testing"

	"github.com/dcdb/wintermute/internal/sensor"
)

// The tests below instantiate templates with a Derive hook: the unit
// domain comes from the inputs, and each unit's outputs from Derive.

func TestInstantiateInputsDerivesOutputs(t *testing.T) {
	nv := figure2Tree(t)
	tpl, err := NewTemplate([]string{"<bottomup-1>memfree"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tpl.Derive = func(u *Unit) []sensor.Topic {
		outs := make([]sensor.Topic, len(u.Inputs))
		for i, in := range u.Inputs {
			outs[i] = in + "-smooth"
		}
		return outs
	}
	us, err := tpl.Instantiate(nv, nil)
	if err != nil {
		t.Fatal(err)
	}
	// All four server nodes have memfree.
	if len(us) != 4 {
		t.Fatalf("units = %d, want 4", len(us))
	}
	if us[1].Name != "/r03/c02/s02/" {
		t.Errorf("unit name = %q", us[1].Name)
	}
	if us[0].Outputs[0] != "/r03/c02/s01/memfree-smooth" {
		t.Errorf("derived output = %q", us[0].Outputs[0])
	}
}

func TestInstantiateInputsDropsNilOutputs(t *testing.T) {
	nv := figure2Tree(t)
	tpl, err := NewTemplate([]string{"<bottomup-1>memfree"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Keep only s02.
	tpl.Derive = func(u *Unit) []sensor.Topic {
		if u.Name != "/r03/c02/s02/" {
			return nil
		}
		return []sensor.Topic{u.Name.Join("x")}
	}
	us, err := tpl.Instantiate(nv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(us) != 1 || us[0].Name != "/r03/c02/s02/" {
		t.Fatalf("units = %v", us)
	}
}

func TestInstantiateInputsErrors(t *testing.T) {
	nv := figure2Tree(t)
	keep := func(u *Unit) []sensor.Topic { return []sensor.Topic{u.Name.Join("x")} }
	// No inputs at all.
	if _, err := (&Template{Derive: keep}).Instantiate(nv, nil); err == nil {
		t.Error("no inputs should fail")
	}
	// Inputs resolve nowhere.
	tpl, err := NewTemplate([]string{"<bottomup>does-not-exist"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tpl.Derive = keep
	if _, err := tpl.Instantiate(nv, nil); err == nil {
		t.Error("unresolvable inputs should fail")
	}
	// Derive drops everything.
	tpl, err = NewTemplate([]string{"<bottomup-1>memfree"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tpl.Derive = func(*Unit) []sensor.Topic { return nil }
	if _, err := tpl.Instantiate(nv, nil); err == nil {
		t.Error("all-dropped units should fail")
	}
}

func TestInstantiateInputsRootFallback(t *testing.T) {
	nv := figure2Tree(t)
	// Absolute-only inputs: single unit at the root.
	tpl, err := NewTemplate([]string{"/r03/inlet-temp"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tpl.Derive = func(u *Unit) []sensor.Topic {
		return []sensor.Topic{"/derived"}
	}
	us, err := tpl.Instantiate(nv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(us) != 1 || us[0].Name != sensor.Root {
		t.Fatalf("units = %v", us)
	}
}
