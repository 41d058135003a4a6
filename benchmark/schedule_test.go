package main

import (
	"reflect"
	"testing"
	"time"
)

// The open-loop schedule is a pure function of its arguments: the same seed
// gives the same sends whenever it is asked, another seed gives others.
func TestFanInScheduleDeterministicInSeed(t *testing.T) {
	a := fanInSchedule(7, 32, 2, 12, 3, 4*time.Second)
	time.Sleep(2 * time.Millisecond) // the wall clock moving must not matter
	b := fanInSchedule(7, 32, 2, 12, 3, 4*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if reflect.DeepEqual(a, fanInSchedule(8, 32, 2, 12, 3, 4*time.Second)) {
		t.Fatal("different seeds produced the same schedule")
	}
}

func TestFanInScheduleShape(t *testing.T) {
	const streams, conns, perPost = 32, 2, 3
	const fps = 12.0
	length := 4 * time.Second
	period := 250 * time.Millisecond
	plan := fanInSchedule(1, streams, conns, fps, perPost, length)
	if len(plan) != conns {
		t.Fatalf("%d connections, want %d", len(plan), conns)
	}
	posts := make([]int, streams)
	scrapes := 0
	for c, sends := range plan {
		for i, s := range sends {
			if i > 0 && s.at < sends[i-1].at {
				t.Fatalf("connection %d: send %d is due before send %d", c, i, i-1)
			}
			if s.at < 0 || s.at >= length {
				t.Fatalf("send due at %v, outside the schedule", s.at)
			}
			if s.kind == sendScrape {
				if c != 0 {
					t.Errorf("scrape on connection %d, want 0", c)
				}
				scrapes++
				continue
			}
			if s.stream%conns != c {
				t.Errorf("stream %d rides connection %d, want %d", s.stream, c, s.stream%conns)
			}
			if s.seq != posts[s.stream] {
				t.Errorf("stream %d post seq %d, want %d", s.stream, s.seq, posts[s.stream])
			}
			posts[s.stream]++
		}
	}
	if scrapes != 4 {
		t.Errorf("%d scrapes in 4 s, want 4", scrapes)
	}
	// Every stream posts once per period from a phase inside the first.
	for s, n := range posts {
		if want := int(length / period); n != want {
			t.Errorf("stream %d posts %d times, want %d", s, n, want)
		}
	}
}
