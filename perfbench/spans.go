package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval. Times are nanoseconds since the recorder
// was created. An aggregate span stands for Calls calls of one kind made
// inside [Start, End] (a protocol method is called once per slot, far too
// often for a span per call); Busy is their summed duration, and it is the
// part of the parent that the span covers when self time is computed.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Cell   int    `json:"cell"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns,omitempty"`
	Calls  int64  `json:"calls,omitempty"`
}

// covered is the time the span accounts for inside its parent.
func (s span) covered() int64 {
	if s.Calls > 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// recorder keeps spans in memory until the run ends. Parent -1 marks a
// root and Cell -1 a span that belongs to no grid cell.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// at converts a wall-clock instant to recorder time.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// add records s and returns its id.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
	return s.ID
}

// begin opens a span that end closes.
func (r *recorder) begin(name string, parent, cell int) int {
	return r.add(span{Name: name, Parent: parent, Cell: cell, Start: r.at(time.Now()), End: -1})
}

func (r *recorder) end(id int) {
	now := r.at(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
}

// self returns span id's duration minus the time its children cover.
func (r *recorder) self(id int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans[id]
	d := s.End - s.Start
	for _, c := range r.spans {
		if c.Parent == id {
			d -= c.covered()
		}
	}
	return d
}

// writeFile stores every span as one JSON document.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	data, err := json.MarshalIndent(struct {
		Spans []span `json:"spans"`
	}{r.spans}, "", " ")
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
