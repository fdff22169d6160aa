package subscribe

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// Handler returns the engine's HTTP API as one handler serving
//
//   - /subscribe — streaming NDJSON tail of the sorted stream
//     (?filter=expr&replay=oldest to catch up from the hot window)
//   - /query     — bounded window read (?filter=expr&limit=N), JSON array
//   - /topk      — heavy hitters (?by=source|event&k=N), JSON array
//
// Mount it (or the individual methods below) on the observability
// server. See OBSERVABILITY.md for the filter grammar.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/subscribe", e.ServeSubscribe)
	mux.HandleFunc("/query", e.ServeQuery)
	mux.HandleFunc("/topk", e.ServeTopK)
	return mux
}

func parseFilterParam(w http.ResponseWriter, req *http.Request) (*Filter, bool) {
	f, err := ParseFilter(req.URL.Query().Get("filter"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return f, true
}

// ServeSubscribe streams matching events as NDJSON until the client
// disconnects or the engine shuts down; shutdown ends the response
// cleanly (terminated chunked body), so well-behaved clients see EOF,
// not a reset. Each batch is rendered from the hot window's bytes into
// one reused buffer: one write and one flush per batch.
func (e *Engine) ServeSubscribe(w http.ResponseWriter, req *http.Request) {
	f, ok := parseFilterParam(w, req)
	if !ok {
		return
	}
	fromOldest := req.URL.Query().Get("replay") == "oldest"
	sub, err := e.Subscribe(f, fromOldest)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer sub.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush() // commit headers so the client sees the stream open
	}
	ctx := req.Context()
	var buf []byte
	for {
		vs, err := sub.nextViews(ctx)
		if err != nil {
			return // client gone or engine closed: end the body cleanly
		}
		buf = buf[:0]
		for i := range vs {
			v := &vs[i]
			buf = appendEvent(buf, v.seq, v.shard, v.node, sub.arena[v.off:v.end])
		}
		if _, err := w.Write(buf); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// ServeQuery answers a bounded catch-up read from the hot window.
func (e *Engine) ServeQuery(w http.ResponseWriter, req *http.Request) {
	f, ok := parseFilterParam(w, req)
	if !ok {
		return
	}
	limit := 1000
	if s := req.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			http.Error(w, fmt.Sprintf("bad limit %q", s), http.StatusBadRequest)
			return
		}
		limit = n
	}
	vs, arena := e.query(f, limit)
	buf := append(make([]byte, 0, 4*len(arena)+3), '[')
	for i := range vs {
		v := &vs[i]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendEvent(buf, v.seq, v.shard, v.node, arena[v.off:v.end])
		buf = buf[:len(buf)-1] // array elements, not NDJSON lines
	}
	buf = append(buf, "]\n"...)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(buf) // a failed write means the client left; there is no one to tell
}

// ServeTopK answers the sketch's heavy-hitter estimate.
func (e *Engine) ServeTopK(w http.ResponseWriter, req *http.Request) {
	k := 10
	if s := req.URL.Query().Get("k"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			http.Error(w, fmt.Sprintf("bad k %q", s), http.StatusBadRequest)
			return
		}
		k = n
	}
	by := req.URL.Query().Get("by")
	var entries []TopEntry
	switch by {
	case "", "source", "node":
		by = "source"
		entries = e.TopSources(k)
	case "event":
		entries = e.TopEvents(k)
	default:
		http.Error(w, fmt.Sprintf("bad by %q (want source or event)", by), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(struct {
		By      string     `json:"by"`
		Entries []TopEntry `json:"entries"`
	}{By: by, Entries: entries})
}
