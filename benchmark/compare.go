package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// readDocs reads every result document in path: one or more documents
// written with -o, concatenated, in the order the runs were made.
func readDocs(path string) ([]resultDoc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []resultDoc
	dec := json.NewDecoder(f)
	for {
		var d resultDoc
		err := dec.Decode(&d)
		if errors.Is(err, io.EOF) {
			return docs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, d)
	}
}

func values(docs []resultDoc, workload, metric string) []float64 {
	var v []float64
	for _, d := range docs {
		if w := d.Workloads[workload]; w != nil {
			if m, ok := w.Metrics[metric]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (its default, exclusive method).
// v needs at least two values.
func quartiles(v []float64) [3]float64 {
	s := sorted(v)
	n, m := len(s), len(s)+1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// verdict applies the paired-run rule to one metric on one workload. A
// holds the baseline runs, B the candidate's, in the order they alternated.
type verdict struct {
	a, b        [3]float64 // quartiles
	delta       float64    // (median B - median A) / median A
	wins, pairs int        // pairs B won; ties count for neither side
	spreadA     float64    // A's interquartile range over its median
	spreadB     float64
	result      string
}

func judge(a, b []float64, m metricSpec) verdict {
	v := verdict{a: quartiles(a), b: quartiles(b)}
	sign := 1.0 // positive differences are worse
	if m.Better == "higher" {
		sign = -1
	}
	v.delta = (v.b[1] - v.a[1]) / v.a[1]
	v.spreadA = (v.a[2] - v.a[0]) / v.a[1]
	v.spreadB = (v.b[2] - v.b[0]) / v.b[1]
	v.pairs = min(len(a), len(b))
	for i := 0; i < v.pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			v.wins++
		}
	}
	maxA, minA := extremes(a)
	maxB, minB := extremes(b)
	allBetter := sign*(maxB-minA) < 0 && sign*(minB-maxA) < 0
	allWorse := sign*(minB-maxA) > 0 && sign*(maxB-minA) > 0
	worse := sign * v.delta
	switch {
	case math.Max(v.spreadA, v.spreadB) > m.Bound && !allBetter && !allWorse:
		v.result = "unresolved: run-to-run spread exceeds the bound"
	case worse > m.Bound:
		v.result = "REGRESSION: worse than the bound"
	case float64(v.wins) >= 0.9*float64(v.pairs) && sign*(v.b[1]-v.a[1]) < 0 && math.Abs(v.b[1]-v.a[1]) > v.a[2]-v.a[0]:
		v.result = "gain"
	default:
		v.result = "within bound"
	}
	return v
}

func extremes(v []float64) (hi, lo float64) {
	s := sorted(v)
	return s[len(s)-1], s[0]
}

// compare prints one row per end-to-end metric and workload: each side's
// median and quartiles, B's win fraction over the pairs, and the verdict.
func compare(aPath, bPath string, spec *benchSpec, w io.Writer) error {
	a, err := readDocs(aPath)
	if err != nil {
		return err
	}
	b, err := readDocs(bPath)
	if err != nil {
		return err
	}
	if len(a) == 0 || len(b) == 0 {
		return errors.New("-compare needs at least one result document per side")
	}
	// Windows of different lengths give the sides different sample
	// counts, so their numbers are not comparable.
	for _, d := range append(a[1:], b...) {
		if d.Env.Seconds != a[0].Env.Seconds {
			return fmt.Errorf("documents measured %gs and %gs windows; compare runs of one window length", a[0].Env.Seconds, d.Env.Seconds)
		}
	}
	fmt.Fprintf(w, "A = %s (%d runs), B = %s (%d runs)\n", aPath, len(a), bPath, len(b))
	if len(a) < 10 || len(b) < 10 {
		fmt.Fprintln(w, "note: a claim needs at least 10 alternating runs per side")
	}
	fmt.Fprintf(w, "%-16s %-16s %12s %25s %12s %25s %8s %6s %5s  %s\n",
		"workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "delta", "bound", "B won", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			av, bv := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(av) < 2 || len(bv) < 2 {
				if len(av)+len(bv) > 0 {
					fmt.Fprintf(w, "%-16s %-16s needs at least 2 runs per side\n", wl.Name, m.Name)
				}
				continue
			}
			v := judge(av, bv, m)
			fmt.Fprintf(w, "%-16s %-16s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g %+7.1f%% %5.0f%% %2d/%-2d  %s\n",
				wl.Name, m.Name, v.a[1], v.a[0], v.a[2], v.b[1], v.b[0], v.b[2],
				100*v.delta, 100*m.Bound, v.wins, v.pairs, v.result)
		}
	}
	return nil
}
