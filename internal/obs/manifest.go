package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// StageTiming is one top-level stage's duration for the manifest.
type StageTiming struct {
	Name            string  `json:"name"`
	DurationSeconds float64 `json:"duration_seconds"`
}

// StageTimings extracts the root span's direct children — the run's
// stages — in start order.
func StageTimings(root *Span) []StageTiming {
	if root == nil {
		return nil
	}
	var out []StageTiming
	for _, c := range root.byStart() {
		out = append(out, StageTiming{Name: c.Name(), DurationSeconds: c.Duration().Seconds()})
	}
	return out
}

// Manifest is the per-run record written next to the artifacts
// (results/run.json): which tool at which configuration produced the
// directory, under which cache schema, through which stages, ending at
// which metric values. An output directory carrying one is
// self-describing — the manifest alone reconstructs the invocation.
type Manifest struct {
	Tool               string        `json:"tool"`
	GoVersion          string        `json:"go_version"`
	CacheSchemaVersion int           `json:"cache_schema_version"`
	Seed               int64         `json:"seed"`
	Workers            int           `json:"workers"`
	CacheDir           string        `json:"cache_dir,omitempty"`
	Config             any           `json:"config,omitempty"`
	Stages             []StageTiming `json:"stages,omitempty"`
	TotalSeconds       float64       `json:"total_seconds"`
	Metrics            Snapshot      `json:"metrics"`
}

// Write renders the manifest as indented JSON at path, atomically (see
// writeJSON).
func (m *Manifest) Write(path string) error {
	return writeJSON(path, m)
}

// writeJSON renders v as indented JSON plus a newline at path, atomically:
// it writes a temp file in path's directory and renames it over path, so a
// concurrent reader never sees a torn file.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
