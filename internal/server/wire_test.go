package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"alchemist/internal/api"
	"alchemist/internal/xtrace"
)

// wireSrc is the fixed program of the golden sync bodies.
const wireSrc = `
int g;

int main() {
	int n = in(0);
	for (int i = 0; i < n; i++) {
		g = g + i;
	}
	out(g);
	return 0;
}
`

// TestWireBodiesGolden pins the bytes of every v1 body shape: response
// bodies as writeJSON sends them, SSE frames as writeSSE sends them,
// and journal records as the compact encoder writes them. The literals
// are the wire format; a change to any wire type must leave them as
// they are.
func TestWireBodiesGolden(t *testing.T) {
	at := time.Date(2026, 10, 19, 7, 50, 12, 396804554, time.UTC)
	started, finished := at.Add(time.Millisecond), at.Add(2500*time.Microsecond)
	const traceID = "68bc467e7882664df2a16ad7ade52b84"
	span := xtrace.SpanRecord{
		TraceID: traceID, SpanID: "2fd3c0a1b4e59687", ParentID: "0af7651916cd43dd",
		Name: "profile", Start: started, End: finished, DurationMS: 1.5,
		Attrs: map[string]string{"scale": "256", "job": "0"},
	}
	queued := api.JobStatus{ID: "5a4f1d8ec9ae03fb", Kind: "run", State: api.JobQueued, CreatedAt: at,
		TraceID: traceID, Spans: 1}
	replay := queued
	replay.IdempotentReplay = true
	succeeded := api.JobStatus{ID: "5a4f1d8ec9ae03fb", Kind: "profile", State: api.JobSucceeded, CreatedAt: at,
		StartedAt: &started, FinishedAt: &finished,
		Progress:   []api.JobProgress{{Job: 0, Steps: 40, Done: true}, {Job: 1, Steps: 50, Done: true}},
		TotalSteps: 90, Result: json.RawMessage(`{"name":"t.mc","jobs":2,"note":"<b> & </b>"}`),
		TraceID: traceID, Spans: 9}
	failed := api.JobStatus{ID: "0a4743b527517461", Kind: "run", State: api.JobFailed, CreatedAt: at,
		StartedAt: &started, FinishedAt: &finished, Error: "vm: out of memory"}

	response := func(v any) string {
		rr := httptest.NewRecorder()
		writeJSON(rr, http.StatusOK, v)
		return rr.Body.String()
	}
	_, ts := newTestServer(t, nil)
	syncBody := func(route, body string) string {
		resp, got := post(t, ts.URL+route, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s = %d: %s", route, resp.StatusCode, got)
		}
		return got
	}
	spec := fmt.Sprintf(`"name":"wire.mc","source":%q,"inputs":[[12],[20]]`, wireSrc)
	sse := func(ev api.Event) string {
		rr := httptest.NewRecorder()
		if err := writeSSE(rr, ev); err != nil {
			t.Fatal(err)
		}
		return rr.Body.String()
	}
	record := func(rec walRecord) string {
		b, err := compactJSON.encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		defer compactJSON.put(b)
		return b.buf.String()
	}

	cases := []struct{ name, got, want string }{
		{"job queued", response(queued), `{
  "id": "5a4f1d8ec9ae03fb",
  "kind": "run",
  "state": "queued",
  "created_at": "2026-10-19T07:50:12.396804554Z",
  "total_steps": 0,
  "trace_id": "68bc467e7882664df2a16ad7ade52b84",
  "spans": 1
}
`},
		{"job replay", response(replay), `{
  "id": "5a4f1d8ec9ae03fb",
  "kind": "run",
  "state": "queued",
  "created_at": "2026-10-19T07:50:12.396804554Z",
  "total_steps": 0,
  "trace_id": "68bc467e7882664df2a16ad7ade52b84",
  "spans": 1,
  "idempotent_replay": true
}
`},
		{"job succeeded", response(succeeded), `{
  "id": "5a4f1d8ec9ae03fb",
  "kind": "profile",
  "state": "succeeded",
  "created_at": "2026-10-19T07:50:12.396804554Z",
  "started_at": "2026-10-19T07:50:12.397804554Z",
  "finished_at": "2026-10-19T07:50:12.399304554Z",
  "progress": [
    {
      "job": 0,
      "steps": 40,
      "done": true
    },
    {
      "job": 1,
      "steps": 50,
      "done": true
    }
  ],
  "total_steps": 90,
  "result": {
    "name": "t.mc",
    "jobs": 2,
    "note": "\u003cb\u003e \u0026 \u003c/b\u003e"
  },
  "trace_id": "68bc467e7882664df2a16ad7ade52b84",
  "spans": 9
}
`},
		{"job failed", response(failed), `{
  "id": "0a4743b527517461",
  "kind": "run",
  "state": "failed",
  "created_at": "2026-10-19T07:50:12.396804554Z",
  "started_at": "2026-10-19T07:50:12.397804554Z",
  "finished_at": "2026-10-19T07:50:12.399304554Z",
  "error": "vm: out of memory",
  "total_steps": 0
}
`},
		{"job list", response(api.JobList{Jobs: []api.JobStatus{queued, failed}, NextPageToken: encodeCursor(failed)}), `{
  "jobs": [
    {
      "id": "5a4f1d8ec9ae03fb",
      "kind": "run",
      "state": "queued",
      "created_at": "2026-10-19T07:50:12.396804554Z",
      "total_steps": 0,
      "trace_id": "68bc467e7882664df2a16ad7ade52b84",
      "spans": 1
    },
    {
      "id": "0a4743b527517461",
      "kind": "run",
      "state": "failed",
      "created_at": "2026-10-19T07:50:12.396804554Z",
      "started_at": "2026-10-19T07:50:12.397804554Z",
      "finished_at": "2026-10-19T07:50:12.399304554Z",
      "error": "vm: out of memory",
      "total_steps": 0
    }
  ],
  "next_page_token": "djE6MTc5MjM5NjIxMjM5NjgwNDU1NDowYTQ3NDNiNTI3NTE3NDYx"
}
`},
		{"job trace", response(api.JobTrace{ID: "5a4f1d8ec9ae03fb", State: api.JobSucceeded, TraceID: traceID,
			Spans: []xtrace.SpanRecord{span}, DroppedSpans: 2}), `{
  "id": "5a4f1d8ec9ae03fb",
  "state": "succeeded",
  "trace_id": "68bc467e7882664df2a16ad7ade52b84",
  "spans": [
    {
      "trace_id": "68bc467e7882664df2a16ad7ade52b84",
      "span_id": "2fd3c0a1b4e59687",
      "parent_span_id": "0af7651916cd43dd",
      "name": "profile",
      "start": "2026-10-19T07:50:12.397804554Z",
      "end": "2026-10-19T07:50:12.399304554Z",
      "duration_ms": 1.5,
      "attrs": {
        "job": "0",
        "scale": "256"
      }
    }
  ],
  "dropped_spans": 2
}
`},
		{"compile", syncBody("/v1/compile", `{"name":"wire.mc","source":`+fmt.Sprintf("%q", wireSrc)+`}`), `{
  "name": "wire.mc",
  "functions": 1,
  "instructions": 19
}
`},
		{"profile", syncBody("/v1/profile", "{"+spec+`,"top":2}`), `{
  "name": "wire.mc",
  "jobs": 2,
  "profile": {
    "total_steps": 278,
    "static_constructs": 2,
    "dynamic_constructs": 34,
    "constructs": [
      {
        "label": -1,
        "kind": "func",
        "name": "Method main",
        "line": 4,
        "func": "main",
        "ttotal": 278,
        "instances": 2,
        "mean_dur": 139,
        "min_dur": 107,
        "max_dur": 171
      },
      {
        "label": 6,
        "kind": "loop",
        "name": "Loop (main, line 6)",
        "line": 6,
        "func": "main",
        "ttotal": 258,
        "instances": 32,
        "mean_dur": 8,
        "min_dur": 8,
        "max_dur": 9,
        "edges": [
          {
            "type": "RAW",
            "head_line": 7,
            "tail_line": 7,
            "head_pc": 9,
            "tail_pc": 7,
            "min_dist": 6,
            "count": 30,
            "violates": true
          },
          {
            "type": "RAW",
            "head_line": 7,
            "tail_line": 9,
            "head_pc": 9,
            "tail_pc": 13,
            "min_dist": 6,
            "count": 2,
            "violates": true
          },
          {
            "type": "WAW",
            "head_line": 7,
            "tail_line": 7,
            "head_pc": 9,
            "tail_pc": 9,
            "min_dist": 8,
            "count": 30,
            "violates": true
          }
        ]
      }
    ]
  },
  "runs": [
    {
      "job": 0,
      "steps": 107,
      "ret": 0,
      "output": [
        66
      ],
      "output_len": 1
    },
    {
      "job": 1,
      "steps": 171,
      "ret": 0,
      "output": [
        190
      ],
      "output_len": 1
    }
  ]
}
`},
		{"advise", syncBody("/v1/advise", "{"+spec+`,"top":2}`), `{
  "name": "wire.mc",
  "jobs": 2,
  "reports": [
    {
      "label": -1,
      "name": "Method main",
      "kind": "func",
      "line": 4,
      "func": "main",
      "parallelizable": false,
      "score": 0,
      "advice": [
        {
          "action": "too-small",
          "text": "mean duration 139 \u003c 1000 instructions; asynchronous execution would not pay for itself"
        }
      ]
    },
    {
      "label": 6,
      "name": "Loop (main, line 6)",
      "kind": "loop",
      "line": 6,
      "func": "main",
      "parallelizable": false,
      "score": 0,
      "advice": [
        {
          "action": "too-small",
          "text": "mean duration 8 \u003c 1000 instructions; asynchronous execution would not pay for itself"
        }
      ]
    }
  ]
}
`},
		{"run", syncBody("/v1/run", "{"+spec+"}"), `{
  "name": "wire.mc",
  "jobs": 2,
  "runs": [
    {
      "job": 0,
      "steps": 107,
      "ret": 0,
      "output": [
        66
      ],
      "output_len": 1
    },
    {
      "job": 1,
      "steps": 171,
      "ret": 0,
      "output": [
        190
      ],
      "output_len": 1
    }
  ]
}
`},
		{"sse progress", sse(api.Event{Seq: 2, Type: "progress", Job: 1, Steps: 40, TotalSteps: 90}), `event: progress
id: 2
data: {"seq":2,"type":"progress","job":1,"steps":40,"total_steps":90}

`},
		{"sse failed", sse(api.Event{Seq: 3, Type: "state", State: api.JobFailed, Error: "vm: out of memory"}), `event: state
id: 3
data: {"seq":3,"type":"state","state":"failed","error":"vm: out of memory"}

`},
		{"record created", record(walRecord{Type: recEvent, ID: "5a4f1d8ec9ae03fb", At: at, Kind: "run",
			Request: json.RawMessage(`{"kind":"run","source":"int main() { return 7 < 8 && 1; }"}`),
			IdemKey: "idem-1", TraceID: traceID,
			Event: &api.Event{Seq: 0, Type: "state", State: api.JobQueued}}), `{"type":"event","id":"5a4f1d8ec9ae03fb","at":"2026-10-19T07:50:12.396804554Z","kind":"run","request":{"kind":"run","source":"int main() { return 7 \u003c 8 \u0026\u0026 1; }"},"idem_key":"idem-1","trace_id":"68bc467e7882664df2a16ad7ade52b84","event":{"seq":0,"type":"state","state":"queued"}}
`},
		{"record span", record(walRecord{Type: recSpan, ID: "5a4f1d8ec9ae03fb", Seq: 1, At: finished, Span: &span}), `{"type":"span","id":"5a4f1d8ec9ae03fb","seq":1,"at":"2026-10-19T07:50:12.399304554Z","span":{"trace_id":"68bc467e7882664df2a16ad7ade52b84","span_id":"2fd3c0a1b4e59687","parent_span_id":"0af7651916cd43dd","name":"profile","start":"2026-10-19T07:50:12.397804554Z","end":"2026-10-19T07:50:12.399304554Z","duration_ms":1.5,"attrs":{"job":"0","scale":"256"}}}
`},
		{"record running", record(walRecord{Type: recEvent, ID: "5a4f1d8ec9ae03fb", Seq: 2, At: started,
			Event: &api.Event{Seq: 1, Type: "state", State: api.JobRunning}}), `{"type":"event","id":"5a4f1d8ec9ae03fb","seq":2,"at":"2026-10-19T07:50:12.397804554Z","event":{"seq":1,"type":"state","state":"running"}}
`},
		{"record progress", record(walRecord{Type: recEvent, ID: "5a4f1d8ec9ae03fb", Seq: 3, At: started,
			Event: &api.Event{Seq: 2, Type: "progress", Job: 1, Steps: 40, TotalSteps: 90}}), `{"type":"event","id":"5a4f1d8ec9ae03fb","seq":3,"at":"2026-10-19T07:50:12.397804554Z","event":{"seq":2,"type":"progress","job":1,"steps":40,"total_steps":90}}
`},
		{"record succeeded", record(walRecord{Type: recEvent, ID: "5a4f1d8ec9ae03fb", Seq: 4, At: finished,
			Event:     &api.Event{Seq: 3, Type: "state", State: api.JobSucceeded},
			StartedAt: started, FinishedAt: finished, Result: json.RawMessage(`{"name":"t.mc","jobs":2}`)}), `{"type":"event","id":"5a4f1d8ec9ae03fb","seq":4,"at":"2026-10-19T07:50:12.399304554Z","event":{"seq":3,"type":"state","state":"succeeded"},"started_at":"2026-10-19T07:50:12.397804554Z","finished_at":"2026-10-19T07:50:12.399304554Z","result":{"name":"t.mc","jobs":2}}
`},
		{"record failed", record(walRecord{Type: recEvent, ID: "0a4743b527517461", Seq: 3, At: finished,
			Event:     &api.Event{Seq: 3, Type: "state", State: api.JobFailed, Error: "vm: out of memory"},
			StartedAt: started, FinishedAt: finished}), `{"type":"event","id":"0a4743b527517461","seq":3,"at":"2026-10-19T07:50:12.399304554Z","event":{"seq":3,"type":"state","state":"failed","error":"vm: out of memory"},"started_at":"2026-10-19T07:50:12.397804554Z","finished_at":"2026-10-19T07:50:12.399304554Z"}
`},
		{"record retired", record(walRecord{Type: recRetired, ID: "5a4f1d8ec9ae03fb", At: finished}), `{"type":"retired","id":"5a4f1d8ec9ae03fb","at":"2026-10-19T07:50:12.399304554Z"}
`},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s: got\n%s\nwant\n%s", tc.name, tc.got, tc.want)
		}
	}
}
