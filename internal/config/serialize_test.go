package config

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gpulat/internal/gpu"
)

func TestJSONRoundTrip(t *testing.T) {
	for _, name := range Names() {
		cfg, _ := ByName(name)
		data, err := ToJSON(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := FromJSON(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(cfg, back) {
			t.Fatalf("%s: round trip changed the configuration", name)
		}
	}
}

// save writes cfg to path as ToJSON renders it.
func save(t *testing.T, path string, cfg gpu.Config) {
	t.Helper()
	data, err := ToJSON(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gf100.json")
	cfg := GF100()
	save(t, path, cfg)
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, back) {
		t.Fatal("save/load changed the configuration")
	}
}

func TestByNameOrFile(t *testing.T) {
	if _, err := ByNameOrFile("GF106"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "custom.json")
	cfg := GK104()
	cfg.NumSMs = 3
	save(t, path, cfg)
	got, err := ByNameOrFile("file:" + path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSMs != 3 {
		t.Fatalf("loaded NumSMs = %d", got.NumSMs)
	}
	if _, err := ByNameOrFile("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := ByNameOrFile("file:/does/not/exist.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestFromJSONRejectsGarbage(t *testing.T) {
	if _, err := FromJSON([]byte("{broken")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadedConfigRuns(t *testing.T) {
	// A config that went through JSON must still drive a simulation.
	path := filepath.Join(t.TempDir(), "run.json")
	cfg := GF106()
	cfg.NumSMs = 1
	cfg.NumPartitions = 1
	save(t, path, cfg)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.SM.WarpSize != 32 || !back.SM.L1Enabled {
		t.Fatalf("loaded config lost fields: %+v", back.SM)
	}
}
