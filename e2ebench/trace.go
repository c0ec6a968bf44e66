package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced call: a facade operation issued by a benchmark client
// or one layer probe call. Spans are recorded by the benchmark around its
// calls into each layer, not inside the program.
type span struct {
	Kind   string `json:"kind"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
	Peer   int    `json:"peer"`
	Size   int64  `json:"size"`
	Hops   int    `json:"hops"`
	Cached bool   `json:"cached"`
	OK     bool   `json:"ok"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(kind string, start, end time.Time, peer int, size int64, hops int, cached, ok bool) {
	if t == nil {
		return
	}
	s := span{
		Kind: kind, Start: start.Sub(t.epoch).Microseconds(), End: end.Sub(t.epoch).Microseconds(),
		Peer: peer, Size: size, Hops: hops, Cached: cached, OK: ok,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// dump writes the spans as JSON lines to path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
