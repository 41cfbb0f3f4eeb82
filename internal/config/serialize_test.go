package config

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, back) {
		t.Fatal("save/load changed the configuration")
	}
}

func TestFromJSONRejectsGarbage(t *testing.T) {
	if _, err := FromJSON([]byte("{broken")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestFromJSONValidates: a config that parses but that no device can be
// built from fails to load, with an error naming the field, instead of
// panicking later in gpu.New.
func TestFromJSONValidates(t *testing.T) {
	bad := GF106()
	bad.SM.L1.Sets = 3
	data, err := ToJSON(bad)
	if err != nil {
		t.Fatal(err)
	}
	for body, field := range map[string]string{`{"Name":"x"}`: "NumSMs", string(data): "sm 0: L1: cache : sets"} {
		if _, err := FromJSON([]byte(body)); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("FromJSON(%.20s...) = %v, want an error naming %s", body, err, field)
		}
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
