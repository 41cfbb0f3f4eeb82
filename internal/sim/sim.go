package sim

// Cycle is a point in simulated time, measured in core ("hot") clock cycles.
// The whole simulator runs in a single clock domain; clock-domain ratios of
// real hardware are folded into component latencies by the configuration
// presets (see internal/config).
type Cycle uint64

// Ticker is implemented by every component that performs work each cycle.
type Ticker interface {
	// Tick advances the component to cycle c. Tick is called at most once
	// per cycle with strictly increasing values of c; under the event
	// engine, cycles at which the component provably cannot act are
	// skipped entirely (see the package contract in doc.go).
	Tick(c Cycle)
}
