package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// A span's self time is its duration minus the part of its interval its
// children cover: overlapping children count once, a child reaching outside
// the parent is clipped, grandchildren do not count.
func TestSelfTimeIsDurationMinusCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20, EndNS: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "grandchild", StartNS: 12, EndNS: 20},
		{ID: 6, Name: "leaf", StartNS: 200, EndNS: 260},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 12, 3: 30, 4: 30, 5: 8, 6: 60} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, 0)
	if id != 0 || r.end(id) != 0 || r.all() != nil {
		t.Error("a nil recorder must record nothing")
	}
}

func TestRecorderNestsAndWrites(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", 0, 7)
	child := r.begin("child", root, 7)
	time.Sleep(time.Millisecond)
	if d := r.end(child); d < time.Millisecond {
		t.Errorf("child lasted %v, want at least 1ms", d)
	}
	r.end(root)
	spans := r.all()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Request != 7 {
		t.Fatalf("spans = %+v", spans)
	}

	path := filepath.Join(t.TempDir(), "sub", "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var back []span
	var selfNS []int64
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var line struct {
			span
			SelfNS int64 `json:"self_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		back = append(back, line.span)
		selfNS = append(selfNS, line.SelfNS)
	}
	if len(back) != 2 || back[0] != spans[0] || back[1] != spans[1] {
		t.Fatalf("span file round trip: %+v, want %+v", back, spans)
	}
	if want := (spans[0].dur() - spans[1].dur()).Nanoseconds(); selfNS[0] != want || selfNS[1] != spans[1].dur().Nanoseconds() {
		t.Errorf("self times in the span file = %v, want [%d %d]", selfNS, want, spans[1].dur().Nanoseconds())
	}
}
