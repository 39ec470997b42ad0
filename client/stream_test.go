package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// sseTransport answers every request with the same event-stream body,
// with no server goroutines to allocate beside the client.
type sseTransport string

func (body sseTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"text/event-stream"}},
		Body:       io.NopCloser(strings.NewReader(string(body))),
		Request:    req,
	}, nil
}

// sseBody renders a finished job's event log the way the server's
// events endpoint writes it.
func sseBody(evs ...string) string {
	var b strings.Builder
	for i, ev := range evs {
		fmt.Fprintf(&b, "event: state\nid: %d\ndata: %s\n\n", i, ev)
	}
	return b.String()
}

// drain reads a stream to its terminal event.
func drain(t testing.TB, c *Client) []Event {
	es := c.StreamEvents("j1", 0)
	defer es.Close()
	var evs []Event
	for {
		ev, err := es.Next(context.Background())
		if errors.Is(err, io.EOF) {
			return evs
		}
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
}

// TestStreamDecodesLongEventLine: an event line far past the scanner's
// starting buffer still decodes whole.
func TestStreamDecodesLongEventLine(t *testing.T) {
	msg := strings.Repeat("x", 200<<10)
	body := sseBody(
		`{"seq":0,"type":"state","state":"queued"}`,
		fmt.Sprintf(`{"seq":1,"type":"state","state":"failed","error":%q}`, msg),
	)
	c := New("http://sse.test", WithHTTPClient(&http.Client{Transport: sseTransport(body)}))
	evs := drain(t, c)
	if len(evs) != 2 || evs[1].State != JobFailed || evs[1].Error != msg {
		t.Fatalf("got %d events, want queued then failed with a %d-byte error", len(evs), len(msg))
	}
}

// TestStreamAllocatesLittlePerConnection: reading a finished job's
// short event log costs a small fraction of a 64 KiB line buffer.
func TestStreamAllocatesLittlePerConnection(t *testing.T) {
	body := sseBody(
		`{"seq":0,"type":"state","state":"queued"}`,
		`{"seq":1,"type":"state","state":"running"}`,
		`{"seq":2,"type":"progress","job":0,"steps":5000,"total_steps":5000}`,
		`{"seq":3,"type":"state","state":"succeeded"}`,
	)
	c := New("http://sse.test", WithHTTPClient(&http.Client{Transport: sseTransport(body)}))
	drain(t, c) // first-use allocations stay out of the count
	const streams = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < streams; i++ {
		if evs := drain(t, c); len(evs) != 4 {
			t.Fatalf("got %d events, want 4", len(evs))
		}
	}
	runtime.ReadMemStats(&after)
	perStream := (after.TotalAlloc - before.TotalAlloc) / streams
	if perStream > 16<<10 {
		t.Fatalf("one stream allocates %d bytes, want at most %d", perStream, 16<<10)
	}
	t.Logf("%d bytes per stream", perStream)
}
