package config

import (
	"encoding/json"
	"fmt"
	"os"

	"gpulat/internal/gpu"
)

// ToJSON serializes a device configuration (pretty-printed). All
// configuration structs are plain data, so the JSON round-trips exactly;
// this is how experiment configurations are archived alongside results.
func ToJSON(cfg gpu.Config) ([]byte, error) {
	return json.MarshalIndent(cfg, "", "  ")
}

// FromJSON parses a device configuration. The input must be a complete
// configuration (e.g. produced by ToJSON and edited); field validation
// happens when the GPU is constructed.
func FromJSON(data []byte) (gpu.Config, error) {
	var cfg gpu.Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return gpu.Config{}, fmt.Errorf("config: %w", err)
	}
	return cfg, nil
}

// Load reads a configuration from a JSON file. The name "file:<path>"
// form of ByNameOrFile uses it.
func Load(path string) (gpu.Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return gpu.Config{}, err
	}
	return FromJSON(data)
}

// ByNameOrFile resolves a preset name, or, when name has the form
// "file:<path>", loads the configuration from the JSON file.
func ByNameOrFile(name string) (gpu.Config, error) {
	if len(name) > 5 && name[:5] == "file:" {
		return Load(name[5:])
	}
	cfg, ok := ByName(name)
	if !ok {
		return gpu.Config{}, fmt.Errorf("config: unknown architecture %q (have %v, or file:<path>)", name, Names())
	}
	return cfg, nil
}
