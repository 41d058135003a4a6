package main

import (
	"math/rand"
	"sort"
	"time"
)

// The open-loop schedule of http_fanin. It is a pure function of its
// arguments — never of the wall clock or of how the server responds — so
// the load offered is the same on every run of a seed, and a slow server
// builds a backlog instead of receiving less.

type sendKind uint8

const (
	sendPost   sendKind = iota // ingest perPost frames, then read results once
	sendScrape                 // GET /metrics
)

// send is one scheduled request of one connection.
type send struct {
	at     time.Duration // due time since the schedule's start
	kind   sendKind
	stream int // index into the workload's streams (posts only)
	seq    int // the stream's seq-th post of this schedule
}

// fanInSchedule spreads streams over conns connections (stream i rides
// connection i mod conns). Each stream posts every perPost/fps seconds. The
// period is cut into one slot per stream, dealt to the connections in turn;
// the seed decides which of a connection's streams gets which of its slots,
// and where in the first half of the slot the stream's phase falls. Cameras
// that start at random collide, and a periodic schedule repeats the same
// collisions every period: phases drawn freely made the latency a property
// of the seed's collisions, not of the server. Connection 0 also scrapes
// /metrics once a second from 0.5 s. Each connection's sends are in due
// order, ties broken by stream.
func fanInSchedule(seed int64, streams, conns int, fps float64, perPost int, length time.Duration) [][]send {
	rng := rand.New(rand.NewSource(seed))
	period := time.Duration(float64(perPost) / fps * float64(time.Second))
	slot := period / time.Duration(streams)
	plan := make([][]send, conns)
	for c := 0; c < conns; c++ {
		var riders []int
		for s := c; s < streams; s += conns {
			riders = append(riders, s)
		}
		rng.Shuffle(len(riders), func(i, j int) { riders[i], riders[j] = riders[j], riders[i] })
		for k, s := range riders {
			phase := time.Duration(k*conns+c)*slot + time.Duration(rng.Int63n(int64(slot)/2+1))
			for seq := 0; phase+time.Duration(seq)*period < length; seq++ {
				plan[c] = append(plan[c], send{at: phase + time.Duration(seq)*period, kind: sendPost, stream: s, seq: seq})
			}
		}
	}
	for at := 500 * time.Millisecond; at < length; at += time.Second {
		plan[0] = append(plan[0], send{at: at, kind: sendScrape})
	}
	for c := range plan {
		p := plan[c]
		sort.SliceStable(p, func(i, j int) bool {
			if p[i].at != p[j].at {
				return p[i].at < p[j].at
			}
			return p[i].stream < p[j].stream
		})
	}
	return plan
}
