package sim

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Never is the horizon a fully drained component reports from NextEvent:
// there is no future cycle at which it can act without new external
// input.
const Never Cycle = ^Cycle(0)

// Component is a Ticker that can also bound its own idleness, the hook
// the event-driven simulation kernel uses to fast-forward across spans
// where the whole machine provably cannot change state (the paper's
// point made operational: throughput cores spend long stretches with
// nothing to do but wait on in-flight memory).
type Component interface {
	Ticker

	// NextEvent returns the earliest cycle t >= now at which the
	// component could change semantic state — retire a timed item,
	// schedule queued work, or hand an item to a neighboring component —
	// assuming no new external input arrives before t. It returns Never
	// when the component is fully drained.
	//
	// The contract is one-sided. Reporting a horizon EARLIER than the
	// true next event only costs speed: the kernel wakes, ticks a no-op
	// cycle, and recomputes. Reporting one LATER than the true next
	// event would skip real work and break the event-driven loop's
	// equivalence with the cycle-driven loop; the property test in
	// internal/gpu enforces that this never happens.
	//
	// NextEvent must be side-effect free: the kernel may call it any
	// number of times between Ticks.
	NextEvent(now Cycle) Cycle
}

// Engine selects the top-level simulation loop.
type Engine uint8

const (
	// EngineEvent is the event-driven kernel: between cycles in which
	// some component can act, the clock jumps straight to the earliest
	// reported NextEvent horizon. It is the default (zero value) and
	// produces results identical to EngineTick.
	EngineEvent Engine = iota
	// EngineTick is the classic cycle-driven loop: every cycle is
	// stepped and ticks every component that holds work. It is the
	// reference implementation the event engine is validated against.
	EngineTick
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineEvent:
		return "event"
	case EngineTick:
		return "tick"
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// EngineNames lists the selectable engines, default first.
func EngineNames() []string { return []string{"event", "tick"} }

// ParseEngine resolves an engine name; the empty string selects the
// default event engine.
func ParseEngine(name string) (Engine, error) {
	switch strings.ToLower(name) {
	case "", "event":
		return EngineEvent, nil
	case "tick":
		return EngineTick, nil
	}
	return 0, fmt.Errorf("sim: unknown engine %q (event or tick)", name)
}

// MarshalJSON serializes the engine by name so archived configurations
// stay readable and editable.
func (e Engine) MarshalJSON() ([]byte, error) {
	s := e.String()
	if e != EngineEvent && e != EngineTick {
		return nil, fmt.Errorf("sim: cannot serialize %s", s)
	}
	return json.Marshal(s)
}

// UnmarshalJSON parses an engine name; empty selects the default.
func (e *Engine) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("sim: engine must be a string: %w", err)
	}
	parsed, err := ParseEngine(s)
	if err != nil {
		return err
	}
	*e = parsed
	return nil
}
