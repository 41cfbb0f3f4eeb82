package core

import (
	"testing"

	"gpulat/internal/config"
	"gpulat/internal/kernels"
	"gpulat/internal/sim"
)

// TestDeviceDrainedAtDone is a conservation check at the end of a run:
// once a catalog kernel finishes, under either engine, every miss a
// cache reserved has been filled, every partition queue is empty, no SM
// holds a warp or a transaction, and the tracker read every load's log.
func TestDeviceDrainedAtDone(t *testing.T) {
	for _, name := range kernels.CatalogNames() {
		for _, engine := range []sim.Engine{sim.EngineTick, sim.EngineEvent} {
			cfg := config.GF106()
			cfg.Engine = engine
			wl, err := kernels.NewByName(name, kernels.ScaleTest, 3)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunDynamic(cfg, wl)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, engine, err)
			}
			for _, s := range res.Device.SMs() {
				if l1 := s.L1(); l1 != nil && l1.MSHRsInUse() != 0 {
					t.Errorf("%s/%v: SM %d ends with %d L1 MSHRs in use", name, engine, s.Config().ID, l1.MSHRsInUse())
				}
				if s.Busy() {
					t.Errorf("%s/%v: SM %d is busy at Done", name, engine, s.Config().ID)
				}
			}
			for i, p := range res.Device.Partitions() {
				if l2 := p.L2(); l2 != nil && l2.MSHRsInUse() != 0 {
					t.Errorf("%s/%v: partition %d ends with %d L2 MSHRs in use", name, engine, i, l2.MSHRsInUse())
				}
				if !p.Drained() {
					t.Errorf("%s/%v: partition %d is not drained: %s", name, engine, i, p.DebugState())
				}
			}
			if bad := res.Tracker.BadLogs(); bad != 0 {
				t.Errorf("%s/%v: %d bad stage logs", name, engine, bad)
			}
			if res.Tracker.Len() == 0 {
				t.Errorf("%s/%v: the tracker recorded no load", name, engine)
			}
		}
	}
}
