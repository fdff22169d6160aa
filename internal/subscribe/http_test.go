package subscribe

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"brisk/internal/record"
)

func newHTTPEngine(t *testing.T) (*Engine, *httptest.Server) {
	t.Helper()
	e := New(Config{Shards: 4})
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(e.Close)
	return e, srv
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp
}

func TestServeQuery(t *testing.T) {
	e, srv := newHTTPEngine(t)
	for i := 0; i < 20; i++ {
		publish(t, e, int32(i%4), uint8(i%2), int64(100+i), 1, record.StrVal("payload"))
	}
	e.EndFlush()

	var evs []wireEvent
	getJSON(t, srv.URL+"/query?filter=node%3D2&limit=3", &evs)
	if len(evs) != 3 {
		t.Fatalf("query returned %d events, want 3", len(evs))
	}
	for _, ev := range evs {
		if ev.Node != 2 {
			t.Fatalf("filtered query returned node %d", ev.Node)
		}
		if ev.TS == nil || *ev.TS < 100 {
			t.Fatalf("event missing its timestamp: %+v", ev)
		}
		if len(ev.Field) != 1 || ev.Field[0].Str == nil || *ev.Field[0].Str != "payload" {
			t.Fatalf("event payload fields wrong: %+v", ev)
		}
	}

	resp, err := http.Get(srv.URL + "/query?filter=bogus%3D1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad filter: status %d, want 400", resp.StatusCode)
	}
}

func TestServeTopK(t *testing.T) {
	e, srv := newHTTPEngine(t)
	for i := 0; i < 50; i++ {
		publish(t, e, 7, 3, int64(i), 1)
	}
	publish(t, e, 1, 1, 0, 1)
	e.EndFlush()

	var got struct {
		By      string     `json:"by"`
		Entries []TopEntry `json:"entries"`
	}
	getJSON(t, srv.URL+"/topk?by=source&k=2", &got)
	if got.By != "source" || len(got.Entries) == 0 || got.Entries[0].Key != 7 {
		t.Fatalf("topk by source = %+v, want node 7 first", got)
	}
	getJSON(t, srv.URL+"/topk?by=event", &got)
	if got.By != "event" || got.Entries[0].Key != 3 {
		t.Fatalf("topk by event = %+v, want class 3 first", got)
	}
	resp, _ := http.Get(srv.URL + "/topk?by=nonsense")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad by: status %d, want 400", resp.StatusCode)
	}
}

func TestServeSubscribeStreams(t *testing.T) {
	e, srv := newHTTPEngine(t)
	publish(t, e, 1, 1, 100, 1)
	publish(t, e, 2, 2, 200, 1)
	e.EndFlush()

	resp, err := http.Get(srv.URL + "/subscribe?replay=oldest")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var events []uint8
	for len(events) < 3 && sc.Scan() {
		var ev wireEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev.Event)
		if len(events) == 2 {
			// Stream is live: a record published after the response
			// started must arrive on the same body.
			publish(t, e, 3, 9, 300, 1)
			e.EndFlush()
		}
	}
	if len(events) != 3 || events[0] != 1 || events[1] != 2 || events[2] != 9 {
		t.Fatalf("streamed events %v, want [1 2 9]", events)
	}

	// Engine shutdown must end the body cleanly (EOF, not an error).
	e.Close()
	for sc.Scan() {
	}
	if sc.Err() != nil {
		t.Fatalf("stream did not end cleanly after engine close: %v", sc.Err())
	}
}

func TestServeSubscribeBadFilter(t *testing.T) {
	_, srv := newHTTPEngine(t)
	resp, err := http.Get(srv.URL + "/subscribe?filter=zzz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad filter: status %d, want 400", resp.StatusCode)
	}
}
