package core

import (
	"testing"

	"gpulat/internal/kernels"
	"gpulat/internal/sim"
)

// TestDeviceDrainedAtDone is a conservation check at the end of a run:
// once a catalog kernel finishes, under either engine, every miss a
// cache reserved has been filled, every partition queue is empty, no SM
// holds a warp or a transaction, every request and stage log the
// device's pool handed out came back, the tracker read every load's log,
// every load's stage durations sum to its lifetime, and so do the
// tracker cells' stage sums to the loads' lifetimes.
func TestDeviceDrainedAtDone(t *testing.T) {
	for _, name := range kernels.CatalogNames() {
		for _, engine := range bothEngines {
			res := testRun(t, name, engine)
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
			if reqs, logs := res.Device.RequestPool().Outstanding(); reqs != 0 || logs != 0 {
				t.Errorf("%s/%v: %d requests and %d stage logs never went back to the request pool", name, engine, reqs, logs)
			}
			if bad := res.Tracker.BadLogs(); bad != 0 {
				t.Errorf("%s/%v: %d bad stage logs", name, engine, bad)
			}
			if res.Tracker.Len() == 0 {
				t.Errorf("%s/%v: the tracker recorded no load", name, engine)
			}
			var lifetimes sim.Cycle
			for r := range res.Tracker.All() {
				if sum := TotalOf(r.Stages()); sum != r.Total() {
					t.Fatalf("%s/%v: a load on SM %d issued at %d has stages summing to %d, lifetime %d",
						name, engine, r.SM(), r.IssueAt(), sum, r.Total())
				}
				lifetimes += r.Total()
			}
			var staged sim.Cycle
			for _, c := range res.Tracker.life {
				staged += TotalOf(c.stage)
			}
			if staged != lifetimes {
				t.Errorf("%s/%v: the tracker's stage sums add to %d cycles, the loads' lifetimes to %d", name, engine, staged, lifetimes)
			}
		}
	}
}
