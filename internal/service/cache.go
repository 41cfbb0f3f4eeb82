package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gpulat/internal/runner"
	"gpulat/internal/stats"
)

// Entry is one cached job outcome: the normalized job it answers and the
// deterministic metrics it produced. Only successful results are cached
// (errors may be environmental), and only durable content is stored —
// the entry bytes go through the comparable encoding, so wall-clock
// fields can never leak into the store and poison byte-equality gates.
type Entry struct {
	Key     runner.JobKey   `json:"key"`
	Job     runner.Job      `json:"job"`
	Metrics []runner.Metric `json:"metrics"`
}

// CacheStats are the cache's monotonic counters plus its current size.
type CacheStats struct {
	Hits      int64 `json:"hits" metric:"gpulat_cache_hits_total,counter,Result-cache lookups answered from disk."`
	Misses    int64 `json:"misses" metric:"gpulat_cache_misses_total,counter,Result-cache lookups that found nothing."`
	Puts      int64 `json:"puts" metric:"gpulat_cache_puts_total,counter,Results written through to the cache."`
	Evictions int64 `json:"evictions" metric:"gpulat_cache_evictions_total,counter,Entries removed by the LRU bound."`
	Entries   int   `json:"entries" metric:"gpulat_cache_entries,gauge,Entries currently in the result cache."`
	// Bytes is the summed on-disk size of the stored entries.
	Bytes int64 `json:"bytes" metric:"gpulat_cache_bytes,gauge,On-disk size of the result cache in bytes."`
}

// Cache is a persistent content-addressed result store. Entries live as
// one JSON file per JobKey under dir/<scheme>/, written atomically
// (temp file + rename), and the entry count is LRU-bounded: Put evicts
// the least-recently-used files (Get refreshes recency) once the store
// exceeds MaxEntries. A Cache is safe for concurrent use within one
// process; cross-process sharing is safe for readers because entries are
// immutable once renamed into place.
type Cache struct {
	dir        string
	maxEntries int

	mu      sync.Mutex
	entries int
	bytes   int64
	hits    int64
	misses  int64
	puts    int64
	evicts  int64
}

// DefaultMaxEntries bounds the cache when the caller does not: large
// enough for several full paper grids, small enough that the store stays
// in the tens of megabytes.
const DefaultMaxEntries = 65536

// OpenCache opens (creating if needed) the store rooted at dir under the
// build's scheme tag. An empty dir selects the user-level cache root
// (~/.cache/gpulat on Linux), the default for `-cache-dir`; maxEntries
// <= 0 selects DefaultMaxEntries.
func OpenCache(dir string, maxEntries int) (*Cache, error) {
	if dir == "" {
		base, err := os.UserCacheDir()
		if err != nil {
			return nil, fmt.Errorf("service: no user cache dir (set -cache-dir): %w", err)
		}
		dir = filepath.Join(base, "gpulat")
	}
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	root := filepath.Join(dir, SchemeTag())
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("service: cache dir: %w", err)
	}
	c := &Cache{dir: root, maxEntries: maxEntries}
	names, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("service: cache dir: %w", err)
	}
	for _, e := range names {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			c.entries++
			if info, err := e.Info(); err == nil {
				c.bytes += info.Size()
			}
		}
	}
	return c, nil
}

// Dir returns the scheme-qualified directory entries are stored in.
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) path(key runner.JobKey) string {
	return filepath.Join(c.dir, string(key)+".json")
}

// Get returns the cached entry for key, if present and well-formed.
// Corrupt files (torn by a crash mid-rename on exotic filesystems, or
// hand-edited) count as misses and are removed.
func (c *Cache) Get(key runner.JobKey) (Entry, bool) {
	e, _, ok := c.get(key)
	return e, ok
}

// get is Get that also hands back the bytes the entry was read from.
func (c *Cache) get(key runner.JobKey) (Entry, []byte, bool) {
	var e Entry
	if !key.Valid() {
		c.count(&c.misses)
		return e, nil, false
	}
	p := c.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		c.count(&c.misses)
		return e, nil, false
	}
	if err := json.Unmarshal(data, &e); err != nil || e.Key != key {
		os.Remove(p)
		c.mu.Lock()
		c.misses++
		if c.entries > 0 {
			c.entries--
			c.bytes -= int64(len(data))
		}
		if c.bytes < 0 {
			c.bytes = 0
		}
		c.mu.Unlock()
		return Entry{}, nil, false
	}
	// Refresh recency so LRU eviction spares hot entries. Best effort:
	// a failed touch only makes the entry look older.
	now := time.Now()
	_ = os.Chtimes(p, now, now)
	c.count(&c.hits)
	return e, data, true
}

// Put stores the result of job under its key, atomically, then enforces
// the LRU bound. Failed results are rejected: an error string is not a
// reproducible simulation outcome.
func (c *Cache) Put(job runner.Job, res runner.Result) error {
	_, err := c.put(job, res)
	return err
}

// put is Put that also hands back the bytes it stored.
func (c *Cache) put(job runner.Job, res runner.Result) ([]byte, error) {
	if res.Failed() {
		return nil, fmt.Errorf("service: refusing to cache failed job %s: %s", job.Name(), res.Err)
	}
	key := job.Key()
	e := Entry{Key: key, Job: job, Metrics: res.Metrics}
	data, err := stats.ComparableJSON(e)
	if err != nil {
		return nil, fmt.Errorf("service: encode cache entry: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "put-*")
	if err != nil {
		return nil, fmt.Errorf("service: cache write: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("service: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("service: cache write: %w", err)
	}
	p := c.path(key)
	prior, existed := fileExists(p)
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("service: cache write: %w", err)
	}
	c.mu.Lock()
	c.puts++
	c.bytes += int64(len(data))
	if existed {
		c.bytes -= prior.Size()
	} else {
		c.entries++
	}
	if c.bytes < 0 {
		c.bytes = 0
	}
	over := c.entries - c.maxEntries
	c.mu.Unlock()
	if over > 0 {
		c.evictLRU(over, key)
	}
	return data, nil
}

// evictLRU removes the n least-recently-used entries, never the one just
// written.
func (c *Cache) evictLRU(n int, keep runner.JobKey) {
	names, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	type aged struct {
		name string
		mod  time.Time
		size int64
	}
	var files []aged
	for _, e := range names {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" || e.Name() == string(keep)+".json" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, aged{e.Name(), info.ModTime(), info.Size()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	removed := 0
	var freed int64
	for i := 0; i < len(files) && removed < n; i++ {
		if os.Remove(filepath.Join(c.dir, files[i].name)) == nil {
			removed++
			freed += files[i].size
		}
	}
	c.mu.Lock()
	c.evicts += int64(removed)
	c.entries -= removed
	c.bytes -= freed
	if c.entries < 0 {
		c.entries = 0
	}
	if c.bytes < 0 {
		c.bytes = 0
	}
	c.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Puts: c.puts,
		Evictions: c.evicts, Entries: c.entries, Bytes: c.bytes,
	}
}

func (c *Cache) count(field *int64) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
}

func fileExists(p string) (os.FileInfo, bool) {
	info, err := os.Stat(p)
	return info, err == nil
}

// CachedExec wraps exec (nil selects runner.Execute) with the cache:
// hits return the stored metrics under the requesting job (so labels and
// seeds render exactly as submitted); misses execute and write through.
// The CLI's -cache flag injects it into the runner; the Station does not
// use it, but probes the cache in Submit and writes it in run.
func CachedExec(c *Cache, exec runner.ExecFunc) runner.ExecFunc {
	if exec == nil {
		exec = runner.Execute
	}
	if c == nil {
		return exec
	}
	return func(ctx context.Context, job runner.Job) runner.Result {
		if e, ok := c.Get(job.Key()); ok {
			return runner.Result{Job: job, Metrics: e.Metrics}
		}
		res := exec(ctx, job)
		if !res.Failed() {
			// Cache-write failures must not fail the job; the result is
			// still correct, only un-memoized.
			_ = c.Put(job, res)
		}
		return res
	}
}
