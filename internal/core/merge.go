package core

import (
	"fmt"
	"slices"
)

// Merge combines profiles collected from several runs of the same
// program on different inputs. The paper notes that "the completeness of
// the dependencies identified by Alchemist is a function of the test
// inputs used to run the profiler" (§II); merging lets a user profile a
// program over an input suite and judge constructs against the union of
// observed dependences:
//
//   - Ttotal, Instances, and edge counts are summed;
//   - per static edge the minimum distance across runs is kept (the
//     minimum still bounds the exploitable concurrency);
//   - construct counts and nesting counters are summed.
//
// All profiles must come from the same compiled program (labels are
// global PCs).
func Merge(profiles ...*Profile) (*Profile, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("core: nothing to merge")
	}
	base := profiles[0]
	for _, p := range profiles[1:] {
		if p.Program != base.Program {
			return nil, fmt.Errorf("core: profiles come from different programs")
		}
	}
	if len(profiles) == 1 {
		return base, nil
	}

	merged := &Profile{
		Program:    base.Program,
		NestDirect: map[uint64]int64{},
		byLabel:    map[int]*ConstructStat{},
	}
	type edgeAgg struct {
		minDist int64
		count   int64
	}
	perLabel := map[int]*ConstructStat{}
	perLabelEdges := map[int]map[EdgeKey]*edgeAgg{}

	for _, p := range profiles {
		merged.TotalSteps += p.TotalSteps
		merged.DynamicConstructs += p.DynamicConstructs
		merged.Pool.Allocated += p.Pool.Allocated
		merged.Pool.Reused += p.Pool.Reused
		merged.Pool.Rotations += p.Pool.Rotations
		merged.Shadow.Loads += p.Shadow.Loads
		merged.Shadow.Stores += p.Shadow.Stores
		merged.Shadow.EvictedReaders += p.Shadow.EvictedReaders
		merged.Shadow.PagesAllocated += p.Shadow.PagesAllocated
		merged.Shadow.Bytes += p.Shadow.Bytes
		for k, v := range p.NestDirect {
			merged.NestDirect[k] += v
		}
		for _, c := range p.Constructs {
			mc := perLabel[c.Label]
			if mc == nil {
				mc = &ConstructStat{
					Label:    c.Label,
					Kind:     c.Kind,
					Pos:      c.Pos,
					FuncName: c.FuncName,
				}
				perLabel[c.Label] = mc
				perLabelEdges[c.Label] = map[EdgeKey]*edgeAgg{}
			}
			if mc.Instances == 0 || (c.Instances > 0 && c.MinDur < mc.MinDur) {
				mc.MinDur = c.MinDur
			}
			if c.MaxDur > mc.MaxDur {
				mc.MaxDur = c.MaxDur
			}
			mc.Ttotal += c.Ttotal
			mc.Instances += c.Instances
			edges := perLabelEdges[c.Label]
			for _, e := range c.Edges {
				k := EdgeKey{HeadPC: int32(e.HeadPC), TailPC: int32(e.TailPC), Type: e.Type}
				agg := edges[k]
				if agg == nil {
					edges[k] = &edgeAgg{minDist: e.MinDist, count: e.Count}
				} else {
					agg.count += e.Count
					if e.MinDist < agg.minDist {
						agg.minDist = e.MinDist
					}
				}
			}
		}
	}

	for label, mc := range perLabel {
		for k, agg := range perLabelEdges[label] {
			mc.Edges = append(mc.Edges, Edge{
				HeadPC:  int(k.HeadPC),
				TailPC:  int(k.TailPC),
				Type:    k.Type,
				MinDist: agg.minDist,
				Count:   agg.count,
				HeadPos: base.Program.PosOf(int(k.HeadPC)),
				TailPos: base.Program.PosOf(int(k.TailPC)),
			})
		}
		slices.SortFunc(mc.Edges, compareEdges)
		merged.Constructs = append(merged.Constructs, mc)
		merged.byLabel[label] = mc
	}
	merged.StaticConstructs = int64(len(merged.Constructs))
	slices.SortFunc(merged.Constructs, compareConstructs)
	return merged, nil
}
