package runner

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
)

// JobKey is a canonical content hash of one Job: jobs with the same key
// are guaranteed to produce the same Metrics, so a key is a safe
// memoization handle for the service layer's result cache and in-flight
// deduplication. Keys are lowercase hex SHA-256 digests.
type JobKey string

// Key returns the job's content-addressed identity. The hash covers the
// normalized experiment spec — kind, architecture, workload, options,
// and seed — and deliberately excludes everything that cannot change
// results:
//
//   - Engine and Config.Engine: execution machinery; TestEngineDeterminismQuickGrid
//     (cmd/gpulat) proves tick and event runs are byte-identical.
//   - Options.Label: a report tag rendered from the requesting job, not
//     an input to the simulation.
//   - Options.Seed: grid expansion has already resolved it into Job.Seed
//     (execution reads only Job.Seed), so keeping it would split
//     identical jobs across distinct keys.
//
// The canonical encoding is the job's own JSON export (fixed field
// order, zero-valued options and a preset job's nil Config omitted), so
// the key is stable across processes and covers an inline config's content.
func (j Job) Key() JobKey {
	n := j
	n.Engine = ""
	if n.Config != nil && n.Config.Engine != 0 {
		c := *n.Config
		c.Engine, n.Config = 0, &c
	}
	n.Options.Label = ""
	n.Options.Seed = 0
	data, err := json.Marshal(n)
	if err != nil {
		// Job is plain data (strings, integers, floats, bools); its
		// marshaling cannot fail short of memory corruption.
		panic(fmt.Sprintf("runner: job %q not serializable: %v", j.Name(), err))
	}
	sum := sha256.Sum256(data)
	return JobKey(hex.EncodeToString(sum[:]))
}

// Hash64 returns the key's routing hash: the first 8 bytes of the
// SHA-256 digest the key spells in hex. Because the key already is a
// cryptographic hash of the job spec, its prefix is uniformly
// distributed — the service layer's consistent-hash ring places keys
// with it, which is what keeps a job's placement (and therefore its
// backend cache locality) stable across processes. Malformed keys hash their raw bytes instead
// so the function is total.
func (k JobKey) Hash64() uint64 {
	if len(k) >= 16 {
		if v, err := strconv.ParseUint(string(k[:16]), 16, 64); err == nil {
			return v
		}
	}
	sum := sha256.Sum256([]byte(k))
	return binary.BigEndian.Uint64(sum[:8])
}

// Valid reports whether k has the shape of a Key result (64 hex
// digits) — the service layer validates client-supplied keys with it
// before touching the cache or the filesystem.
func (k JobKey) Valid() bool {
	if len(k) != 2*sha256.Size {
		return false
	}
	for _, c := range k {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
