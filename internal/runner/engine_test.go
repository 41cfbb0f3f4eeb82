package runner

import (
	"context"
	"reflect"
	"testing"

	"gpulat/internal/config"
	"gpulat/internal/sim"
)

// TestJobEngineSelection verifies the engine plumbing: tick, event, and
// the empty default must produce byte-identical metrics (the runner-level
// face of the event kernel's equivalence guarantee), and an unknown
// engine must fail the job rather than silently falling back.
func TestJobEngineSelection(t *testing.T) {
	base := Job{
		Kind: KindDynamic, Arch: "GF106", Kernel: "vecadd", Seed: 7,
		Options: Options{TestScale: true},
	}
	run := func(engine string) Result {
		j := base
		j.Engine = engine
		return Execute(context.Background(), j)
	}

	tick, event, def := run("tick"), run("event"), run("")
	for _, r := range []Result{tick, event, def} {
		if r.Failed() {
			t.Fatalf("job failed: %s", r.Err)
		}
	}
	if !reflect.DeepEqual(tick.Metrics, event.Metrics) {
		t.Fatalf("tick and event metrics diverged:\ntick:  %+v\nevent: %+v", tick.Metrics, event.Metrics)
	}
	if !reflect.DeepEqual(event.Metrics, def.Metrics) {
		t.Fatalf("default engine is not the event engine:\nevent:   %+v\ndefault: %+v", event.Metrics, def.Metrics)
	}

	if bogus := run("warp-drive"); !bogus.Failed() {
		t.Fatal("unknown engine must fail the job")
	}
}

// TestResolveConfigEngineInheritance verifies the precedence rule Check
// applies: an unset job engine inherits the config's own setting (so an
// inline configuration, as a config file becomes, can pin one), while a
// named engine overrides it.
func TestResolveConfigEngineInheritance(t *testing.T) {
	cfg, _ := config.ByName("GF106")
	cfg.Engine = sim.EngineTick
	got, err := Job{Kind: KindStatic, Config: &cfg}.Check()
	if err != nil {
		t.Fatal(err)
	}
	if got.Engine != sim.EngineTick {
		t.Fatalf("unset job engine clobbered the inline config: got %s", got.Engine)
	}
	got, err = Job{Kind: KindStatic, Config: &cfg, Engine: "event"}.Check()
	if err != nil {
		t.Fatal(err)
	}
	if got.Engine != sim.EngineEvent {
		t.Fatalf("named job engine did not override the inline config: got %s", got.Engine)
	}
}
