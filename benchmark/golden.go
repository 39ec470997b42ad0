package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"alchemist/internal/core"
	"alchemist/internal/report"
)

// golden holds the reference outputs, per input scale ("default" or
// "small"). Hashes of seed-dependent items carry the seed in their key, so
// a seed without recorded hashes is still checked by the seed-independent
// checks of each workload.
type golden map[string]*goldenSet

type goldenSet struct {
	// Sha256 maps "workload/item" or "workload/seed/item" to the sha256 of
	// the item's report.WriteJSON output.
	Sha256 map[string]string `json:"sha256"`
	// Targets are the paper-facing numbers of the embedded workloads:
	// construct counts, violating RAW edges, and gzip's flush_block edges.
	Targets map[string]int64 `json:"targets"`
}

func loadGolden(path string) (golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return g, nil
}

func (g golden) write(path string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// set returns the reference set of the run's scale, creating it when
// recording.
func (c config) set() *goldenSet {
	scale := "default"
	if c.small {
		scale = "small"
	}
	gs := c.gold[scale]
	if gs == nil {
		gs = &goldenSet{Sha256: map[string]string{}, Targets: map[string]int64{}}
		if c.update {
			c.gold[scale] = gs
		}
	}
	return gs
}

// profileJSON encodes p the way `alchemist profile -json` does.
func profileJSON(p *core.Profile) ([]byte, error) {
	var buf bytes.Buffer
	err := report.WriteJSON(&buf, p)
	return buf.Bytes(), err
}

func hashOf(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// checkHash compares a profile encoding against the recorded hash for key;
// keys without a recorded hash pass.
func (c config) checkHash(key string, encoded []byte) error {
	gs := c.set()
	got := hashOf(encoded)
	if c.update {
		gs.Sha256[key] = got
		return nil
	}
	if want, ok := gs.Sha256[key]; ok && want != got {
		return fmt.Errorf("profile sha256 %s, golden %s", got[:12], want[:12])
	}
	return nil
}

// paperTargets extracts the paper-facing numbers of one embedded workload.
func paperTargets(name string, p *core.Profile) map[string]int64 {
	t := map[string]int64{
		name + "/static_constructs":  p.StaticConstructs,
		name + "/dynamic_constructs": p.DynamicConstructs,
		name + "/violating_raw":      int64(p.TotalViolating(core.RAW)),
	}
	if fb := p.ConstructForFunc("flush_block"); fb != nil {
		t[name+"/flush_block.raw_edges"] = int64(fb.CountEdges(core.RAW))
		t[name+"/flush_block.violating_raw"] = int64(len(fb.ViolatingEdges(core.RAW)))
	}
	return t
}

func (c config) checkTargets(name string, p *core.Profile) error {
	gs := c.set()
	for k, got := range paperTargets(name, p) {
		if c.update {
			gs.Targets[k] = got
			continue
		}
		if want, ok := gs.Targets[k]; ok && want != got {
			return fmt.Errorf("%s = %d, golden %d", k, got, want)
		}
	}
	return nil
}
