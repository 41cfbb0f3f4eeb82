package config

import (
	"encoding/json"
	"fmt"

	"gpulat/internal/gpu"
)

// ToJSON serializes a device configuration (pretty-printed). All
// configuration structs are plain data, so the JSON round-trips exactly;
// this is how experiment configurations are archived alongside results.
func ToJSON(cfg gpu.Config) ([]byte, error) {
	return json.MarshalIndent(cfg, "", "  ")
}

// FromJSON parses and validates a device configuration. The input must
// be a complete configuration (e.g. produced by ToJSON and edited): one
// that gpu.Config.Validate refuses fails here, naming the field.
func FromJSON(data []byte) (gpu.Config, error) {
	var cfg gpu.Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return gpu.Config{}, fmt.Errorf("config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return gpu.Config{}, fmt.Errorf("config: %w", err)
	}
	return cfg, nil
}
