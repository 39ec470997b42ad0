package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// BucketSnapshot is one cumulative histogram bucket: the count of
// observations <= UpperBound. UpperBound is +Inf for the last bucket.
type BucketSnapshot struct {
	UpperBound float64
	Count      int64
}

// bucketJSON is the wire form of a bucket: the upper bound is a string
// because JSON has no representation for the +Inf bucket.
type bucketJSON struct {
	UpperBound string `json:"le"`
	Count      int64  `json:"count"`
}

// MarshalJSON renders the upper bound in Prometheus notation ("+Inf"
// for the unbounded bucket), which plain JSON numbers cannot express.
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(bucketJSON{UpperBound: formatFloat(b.UpperBound), Count: b.Count})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (b *BucketSnapshot) UnmarshalJSON(data []byte) error {
	var raw bucketJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	if raw.UpperBound == "+Inf" {
		b.UpperBound = math.Inf(1)
		return nil
	}
	v, err := strconv.ParseFloat(raw.UpperBound, 64)
	if err != nil {
		return err
	}
	b.UpperBound = v
	return nil
}

// HistogramSnapshot is a point-in-time view of one histogram.
type HistogramSnapshot struct {
	Count     int64            `json:"count"`
	Sum       float64          `json:"sum"`
	Buckets   []BucketSnapshot `json:"buckets"`
	Exemplars []Exemplar       `json:"exemplars,omitempty"`
}

// Snapshot is a point-in-time view of a whole registry, ready for JSON
// encoding. Instruments registered but never touched still appear, with
// zero values. Children of labeled instruments appear as flat keys in
// Prometheus selector notation, e.g. `name{route="health"}`.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

func histSnapshot(h *Histogram) HistogramSnapshot {
	hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Exemplars: h.Exemplars()}
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		hs.Buckets = append(hs.Buckets, BucketSnapshot{UpperBound: ub, Count: cum})
	}
	return hs
}

// Snapshot captures every registered instrument. Individual reads are
// atomic; the snapshot as a whole is not a consistent cut across
// instruments (fine for monitoring, the only intended use).
func (r *Registry) Snapshot() Snapshot {
	r.runScrapeHooks()
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, in := range r.sorted() {
		switch {
		case in.c != nil:
			s.Counters[in.name] = in.c.Value()
		case in.g != nil:
			s.Gauges[in.name] = in.g.Value()
		case in.h != nil:
			s.Histograms[in.name] = histSnapshot(in.h)
		case in.cv != nil:
			for _, ch := range in.cv.v.snapshot() {
				s.Counters[in.name+in.cv.v.labelString(ch)] = ch.c.Value()
			}
		case in.gv != nil:
			for _, ch := range in.gv.v.snapshot() {
				s.Gauges[in.name+in.gv.v.labelString(ch)] = ch.g.Value()
			}
		}
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// formatFloat renders a float the way the Prometheus text format expects
// (shortest round-trip representation, "+Inf" for the unbounded bucket).
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writePromHistogram writes one histogram series.
func writePromHistogram(w io.Writer, name string, h *Histogram) error {
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(ub), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n",
		name, formatFloat(h.Sum()), name, h.Count())
	return err
}

// WritePrometheus writes every instrument in the Prometheus text
// exposition format (version 0.0.4), sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.runScrapeHooks()
	for _, in := range r.sorted() {
		if in.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", in.name, in.help); err != nil {
				return err
			}
		}
		var err error
		switch {
		case in.c != nil:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", in.name, in.name, in.c.Value())
		case in.g != nil:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", in.name, in.name, in.g.Value())
		case in.h != nil:
			if _, err = fmt.Fprintf(w, "# TYPE %s histogram\n", in.name); err != nil {
				return err
			}
			err = writePromHistogram(w, in.name, in.h)
		case in.cv != nil:
			if _, err = fmt.Fprintf(w, "# TYPE %s counter\n", in.name); err != nil {
				return err
			}
			for _, ch := range in.cv.v.snapshot() {
				if _, err = fmt.Fprintf(w, "%s%s %d\n", in.name, in.cv.v.labelString(ch), ch.c.Value()); err != nil {
					return err
				}
			}
		case in.gv != nil:
			if _, err = fmt.Fprintf(w, "# TYPE %s gauge\n", in.name); err != nil {
				return err
			}
			for _, ch := range in.gv.v.snapshot() {
				if _, err = fmt.Fprintf(w, "%s%s %d\n", in.name, in.gv.v.labelString(ch), ch.g.Value()); err != nil {
					return err
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}
