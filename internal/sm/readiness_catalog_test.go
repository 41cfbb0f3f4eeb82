package sm_test

import (
	"testing"

	"gpulat/internal/kernels"
	"gpulat/internal/sm"
)

// TestReadinessMatchesReferenceScanCatalog runs every catalog kernel at
// ScaleTest through the issue-stage property check (see
// readiness_test.go): maintained readiness state equals a from-scratch
// recomputation before every pick, and every pick equals the reference
// linear scan's.
func TestReadinessMatchesReferenceScanCatalog(t *testing.T) {
	for cname, cfg := range sm.ReadinessConfigs() {
		for _, kname := range kernels.CatalogNames() {
			t.Run(cname+"/"+kname, func(t *testing.T) {
				t.Parallel()
				wl, err := kernels.NewByName(kname, kernels.ScaleTest, 7)
				if err != nil {
					t.Fatal(err)
				}
				sm.RunReadinessCheck(t, cfg, wl.Kernel, wl.Setup)
			})
		}
	}
}
