package runner

import (
	"testing"

	"gpulat/internal/config"
)

func TestJobKeyStableAndDiscriminating(t *testing.T) {
	base := Job{Kind: KindDynamic, Arch: "GF100", Kernel: "bfs", Seed: 42,
		Options: Options{Vertices: 512}}
	if k := base.Key(); k != base.Key() {
		t.Fatalf("key not stable: %s vs %s", k, base.Key())
	}
	if !base.Key().Valid() {
		t.Fatalf("key %q not valid hex-sha256", base.Key())
	}

	// Every semantic field must discriminate.
	for name, mut := range map[string]func(j Job) Job{
		"kind":   func(j Job) Job { j.Kind = KindStatic; return j },
		"arch":   func(j Job) Job { j.Arch = "GK104"; return j },
		"kernel": func(j Job) Job { j.Kernel = "vecadd"; return j },
		"seed":   func(j Job) Job { j.Seed = 43; return j },
		"opts":   func(j Job) Job { j.Options.Vertices = 1024; return j },
		"overrides": func(j Job) Job {
			j.Options.Overrides = config.Overrides{WarpSched: "GTO"}
			return j
		},
	} {
		if mut(base).Key() == base.Key() {
			t.Errorf("%s change did not change the key", name)
		}
	}

	// Execution machinery and report tags must NOT discriminate.
	for name, mut := range map[string]func(j Job) Job{
		"engine":       func(j Job) Job { j.Engine = "tick"; return j },
		"label":        func(j Job) Job { j.Options.Label = "section/x"; return j },
		"options-seed": func(j Job) Job { j.Options.Seed = j.Seed; return j },
	} {
		if mut(base).Key() != base.Key() {
			t.Errorf("%s change altered the key", name)
		}
	}
}

// TestJobKeyGolden pins two keys as literals: the key is the cache path
// and the shard placement of every stored result, so a change to Job,
// Options or Overrides that moves either digest orphans warm caches.
func TestJobKeyGolden(t *testing.T) {
	for want, job := range map[JobKey]Job{
		"b762cc144ee55f0cbd231f1842033b9b07bf420463c78936ef176fbe0656c28d": {
			Kind: KindDynamic, Arch: "GF100", Kernel: "bfs", Seed: 42, Engine: "tick",
			Options: Options{Vertices: 512, BlockDim: 64, Label: "fig1/bfs", Seed: 42}},
		"853ccc2fcc97edb8813433a92415de5a215662aabd45bd0e26655020a7e07877": {
			Kind: KindStatic, Arch: "GK104", Seed: 7,
			Options: Options{Accesses: 48, Overrides: config.Overrides{DRAMSched: "FCFS", L1MSHRs: 16}}},
	} {
		if got := job.Key(); got != want {
			t.Errorf("%s: key %s, want %s", job.Name(), got, want)
		}
	}
}

func TestJobKeyValid(t *testing.T) {
	for _, bad := range []JobKey{"", "abc", JobKey(make([]byte, 64)),
		"ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789"} {
		if bad.Valid() {
			t.Errorf("Valid(%q) = true", bad)
		}
	}
	if k := (Job{Kind: KindChase}).Key(); !k.Valid() {
		t.Errorf("real key %q reported invalid", k)
	}
}

// TestHash64StableAndSpread: the routing hash is the key's digest
// prefix (stable across processes by construction) and spreads a small
// grid over two buckets reasonably.
func TestHash64StableAndSpread(t *testing.T) {
	key := Job{Kind: KindDynamic, Arch: "GF106", Kernel: "vecadd", Seed: 1}.Key()
	if key.Hash64() != key.Hash64() {
		t.Fatal("Hash64 not deterministic")
	}
	// A malformed key must still hash (total function), just not via the
	// prefix path.
	if JobKey("zz").Hash64() == 0 {
		t.Fatal("fallback hash degenerate")
	}
	jobs := Grid{
		Kind:     KindDynamic,
		Archs:    []string{"GF106", "GK104"},
		Kernels:  []string{"vecadd", "copy", "gather"},
		Variants: []Options{{TestScale: true}, {TestScale: true, Label: "b"}},
		Repeats:  2,
	}.Jobs()
	var buckets [2]int
	for _, job := range jobs {
		buckets[job.Key().Hash64()%2]++
	}
	if buckets[0] == 0 || buckets[1] == 0 {
		t.Fatalf("degenerate split %v of %d jobs", buckets, len(jobs))
	}
}
