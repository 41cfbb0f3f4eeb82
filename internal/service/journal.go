package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gpulat/internal/runner"
)

// The coordinator journal is a write-ahead JSONL log of every accepted
// job and membership change, appended unbuffered so a record outlives
// any process death once Append returns. Replay re-admits the jobs
// (backends dedupe and answer from their caches) and re-applies the
// joins and leaves in order, reaching the crashed coordinator's epoch.
// It is never compacted.

// Journal record types.
const (
	journalJob   = "job"   // one accepted job (Key derived from Job on replay)
	journalJoin  = "join"  // backend joined the pool
	journalLeave = "leave" // backend left the pool
)

// JournalRecord is one JSONL line of the coordinator's write-ahead log.
type JournalRecord struct {
	T    string        `json:"t"`
	Key  runner.JobKey `json:"key,omitempty"`
	Job  *runner.Job   `json:"job,omitempty"`
	Addr string        `json:"addr,omitempty"`
	// Epoch records the membership epoch a join/leave produced — for
	// operators reading the log; replay recomputes epochs by reapplying
	// the events.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Journal is the append-only JSONL coordinator log.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// OpenJournal opens (creating if needed) the journal at path and
// returns the replayable records already in it. Unparsable lines are
// skipped: a SIGKILL mid-append leaves a torn last line, and losing
// that one record is exactly the write-ahead contract (it was never
// acknowledged). The torn tail is cut off the file, or the next Append
// would extend it into one unparsable line and lose an acknowledged
// record too.
func OpenJournal(path string) (*Journal, []JournalRecord, error) {
	if dir := filepath.Dir(path); dir != "" && dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("service: journal dir: %w", err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("service: journal read: %w", err)
	}
	data = data[:bytes.LastIndexByte(data, '\n')+1]
	var records []JournalRecord
	for line := range bytes.Lines(data) {
		var rec JournalRecord
		if json.Unmarshal(line, &rec) != nil || rec.T == "" {
			continue // torn or foreign line: drop it
		}
		records = append(records, rec)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil {
		if err = f.Truncate(int64(len(data))); err != nil {
			f.Close()
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("service: journal open: %w", err)
	}
	return &Journal{f: f}, records, nil
}

// Append writes recs durably (one write(2), no userspace buffering)
// before returning. It takes the journal's lock before it calls release,
// so callers that decide under a lock of their own and pass its unlock
// as release append in the order they decided — the order replay
// re-applies membership changes in.
func (j *Journal) Append(release func(), recs ...JournalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	release()
	var data []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("service: journal encode: %w", err)
		}
		data = append(append(data, line...), '\n')
	}
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("service: journal append: %w", err)
	}
	return nil
}

// Close releases the append handle. The file stays on disk — it IS the
// crash-recovery state.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
