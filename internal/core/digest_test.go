package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"alchemist/internal/compile"
	"alchemist/internal/core"
	"alchemist/internal/progs"
	"alchemist/internal/report"
	"alchemist/internal/vm"
)

// profileDigests pins, per embedded workload at its small scale, the
// sha256 of everything a profile exports: the JSON report, the sorted
// NestDirect counters (the Fig. 6(b) removal analysis reads them) and
// the Pool and Shadow stats. The JSON golden hashes of the benchmark
// cover only the first. Any change here is a change of profile, not of
// performance.
var profileDigests = map[string]string{
	"197.parser": "fdc243e813d633752dcee3fe81dafc43d51e1728a15b4ab1f78be1ef9cd2d6c5",
	"bzip2":      "176a1fca6b66cafe2faa015030047cf5906430e3bd1827b2c4cfd097492cc8dc",
	"gzip":       "2719b8eca073d390cad570609c25ce408bed97c4b4c4f30c86366e251a028d55",
	"130.li":     "4968fc6535d88549f06de12adaa1102ed2570c446bb7339654659dc5eee08b5e",
	"ogg":        "ea854b4e0d76bb761c261abadd770816e5b1dcca853b375bb6873f0f06c01097",
	"aes":        "bb2af62247158ec5d632a90fc343d7e3936613094b2053ca80cb6a4cee84ddb2",
	"par2":       "98e55daab917a90e1fdda64e708cdaff4b313ba291bffd7125d38fe45d4ebfbd",
	"delaunay":   "b0cc1b1825ca1d5422ebac6fb5c21188878806f7b49e18b7a8ed8980037b6d16",
}

// digestProfile hashes the parts of p that profileDigests pins.
func digestProfile(t *testing.T, p *core.Profile) string {
	t.Helper()
	h := sha256.New()
	if err := report.WriteJSON(h, p); err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 0, len(p.NestDirect))
	for k := range p.NestDirect {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "nest %d->%d %d\n", int32(k>>32), int32(k), p.NestDirect[k])
	}
	fmt.Fprintf(h, "pool allocated=%d reused=%d rotations=%d\n",
		p.Pool.Allocated, p.Pool.Reused, p.Pool.Rotations)
	fmt.Fprintf(h, "shadow loads=%d stores=%d evicted=%d pages=%d outofrange=%d\n",
		p.Shadow.Loads, p.Shadow.Stores, p.Shadow.EvictedReaders,
		p.Shadow.PagesAllocated, p.Shadow.OutOfRange)
	return hex.EncodeToString(h.Sum(nil))
}

func TestProfileDigests(t *testing.T) {
	all := progs.All()
	if len(all) != len(profileDigests) {
		t.Fatalf("%d workloads, %d digests", len(all), len(profileDigests))
	}
	for _, w := range all {
		t.Run(w.Name, func(t *testing.T) {
			prog, err := compile.Build(w.Name+".mc", w.Source)
			if err != nil {
				t.Fatal(err)
			}
			cfg := vm.Config{Input: w.InputFor(w.SmallScale), MemWords: w.MemWords}
			p, _, err := core.ProfileProgram(prog, cfg, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := digestProfile(t, p), profileDigests[w.Name]; got != want {
				t.Errorf("profile digest %s, want %s", got, want)
			}
		})
	}
}
