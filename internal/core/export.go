package core

import (
	"fmt"
	"io"
)

// WriteRecordsCSV dumps every load record t kept (KeepRecords) as one CSV
// row, in delivery order (raw data for external analysis/plotting):
// identifiers, the three lifetime timestamps, both totals, and the eight
// stage durations.
func WriteRecordsCSV(w io.Writer, t *Tracker) error {
	if _, err := fmt.Fprint(w, "sm,warp,space,issue,created,return,req_total,inst_total,merged_l1,merged_l2"); err != nil {
		return err
	}
	for s := Stage(0); s < NumStages; s++ {
		if _, err := fmt.Fprintf(w, ",%s", s); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for r := range t.All() {
		if _, err := fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d,%d,%t,%t",
			r.SM(), r.Warp(), r.Space(), r.IssueAt(), r.CreatedAt(), r.ReturnAt(),
			r.Total(), r.InstTotal(), r.MergedL1(), r.MergedL2()); err != nil {
			return err
		}
		for _, d := range r.Stages() {
			if _, err := fmt.Fprintf(w, ",%d", d); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
