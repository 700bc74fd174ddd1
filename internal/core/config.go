package core

import (
	"fmt"
	"time"

	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
)

// OperatorConfig is the configuration block shared by all operator
// plugins: identity, mode of operation, computation interval, unit
// management policy and the pattern-unit specification. Plugin-specific
// configurators embed it in their own config structs.
type OperatorConfig struct {
	// Name identifies the operator; it defaults to the plugin name.
	Name string `json:"name"`
	// Mode is "online" (default) or "ondemand".
	Mode string `json:"mode"`
	// IntervalMs is the computation interval in milliseconds for online
	// operators (default 1000).
	IntervalMs int `json:"intervalMs"`
	// Parallel selects parallel unit management: one independent model
	// per unit, computed concurrently (paper §IV-c).
	Parallel bool `json:"parallel"`
	// Inputs and Outputs are pattern expressions (paper §III-C).
	Inputs  []string `json:"inputs"`
	Outputs []string `json:"outputs"`
	// Unit optionally binds the operator to a single unit node instead of
	// instantiating the full domain of the output patterns.
	Unit string `json:"unit"`
}

// IntervalDuration returns the configured computation interval.
func (c OperatorConfig) IntervalDuration() time.Duration {
	if c.IntervalMs <= 0 {
		return time.Second
	}
	return time.Duration(c.IntervalMs) * time.Millisecond
}

// Build constructs the embedded operator base for a plugin: it parses the
// mode, parses the pattern-unit template and instantiates the units
// against the sensor tree. A tree that has no node of the unit domain yet
// (or no Unit node) is no error: the operator starts with no unit and
// gains units as the tree grows (see Base). derive, when given, derives
// each unit's outputs from its inputs in place of Outputs
// (units.Template.Derive).
func (c OperatorConfig) Build(plugin string, nav *navigator.Navigator, derive ...func(*units.Unit) []sensor.Topic) (*Base, error) {
	name := c.Name
	if name == "" {
		name = plugin
	}
	mode, err := ParseMode(c.Mode)
	if err != nil {
		return nil, fmt.Errorf("core: operator %q: %w", name, err)
	}
	tmpl, err := units.NewTemplate(c.Inputs, c.Outputs)
	if err != nil {
		return nil, fmt.Errorf("core: operator %q: %w", name, err)
	}
	tmpl.Unit = sensor.Topic(c.Unit)
	if len(derive) > 0 {
		tmpl.Derive = derive[0]
	}
	b := NewBase(name, plugin, mode, c.IntervalDuration(), c.Parallel)
	b.nav, b.tmpl = nav, tmpl
	if err := b.resolve(); err != nil {
		return nil, fmt.Errorf("core: operator %q: %w", name, err)
	}
	return b, nil
}
