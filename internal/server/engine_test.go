package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// resultsOf reads stream id's results reply through the handler chain.
func resultsOf(t *testing.T, srv *Server, id int) (ResultsReply, string) {
	t.Helper()
	rec := do(t, srv, "GET", fmt.Sprintf("/v1/streams/%d/results", id), "cam", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("results %d: status %d, body %s", id, rec.Code, rec.Body)
	}
	var res ResultsReply
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	return res, rec.Body.String()
}

// engineResults reads stream id's results from offset from off the engine,
// decoded.
func engineResults(t *testing.T, srv *Server, id, from int) ResultsReply {
	t.Helper()
	body, err := srv.engine.results(id, from)
	if err != nil {
		t.Fatal(err)
	}
	var res ResultsReply
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSyncConcurrentIngestSameStream: posts racing on one stream of a Sync
// server are still served one frame at a time — whichever post starts the
// stream's runner also serves the frames the others queue behind it — so
// the stream's results are byte-identical to the same posts made one after
// another, and the race detector sees no frame planned while the previous
// one is still in compute.
func TestSyncConcurrentIngestSameStream(t *testing.T) {
	const posts, perPost = 4, 3
	body := `{"frames":[` + strings.TrimSuffix(strings.Repeat(
		`{"w":320,"h":240,"objects":[{"id":1,"class":0,"x1":40,"y1":40,"x2":120,"y2":120}]},`, perPost), ",") + `]}`
	run := func(concurrent bool) string {
		srv := newServer(t, Config{Workers: 2, Sync: true, Clock: NewScriptClock(), QueueDepth: 64})
		defer srv.Drain()
		id := admit(t, srv, "cam")
		path := fmt.Sprintf("/v1/streams/%d/frames", id)
		post := func() {
			if rec := do(t, srv, "POST", path, "cam", body); rec.Code != http.StatusAccepted {
				t.Errorf("ingest: status %d, body %s", rec.Code, rec.Body)
			}
		}
		var wg sync.WaitGroup
		for i := 0; i < posts; i++ {
			if !concurrent {
				post()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				post()
			}()
		}
		wg.Wait()
		res, raw := resultsOf(t, srv, id)
		if res.Offered != posts*perPost || res.Offered != res.Served+res.Dropped || res.Queued != 0 {
			t.Fatalf("concurrent=%v: offered %d served %d dropped %d queued %d", concurrent, res.Offered, res.Served, res.Dropped, res.Queued)
		}
		return raw
	}
	want, got := run(false), run(true)
	if got != want {
		t.Fatalf("concurrent posts diverge from sequential ones:\n--- sequential ---\n%s\n--- concurrent ---\n%s", want, got)
	}
}

// TestDrainRacesIngest drives ingests and results polls on several streams
// while Drain runs, in both modes: every frame admitted before the door
// closed is accounted on its own stream, nothing is left queued, every
// ingest after Drain is a 503, and no poll shows a frame served without its
// result.
func TestDrainRacesIngest(t *testing.T) {
	for _, syncMode := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=%v", syncMode), func(t *testing.T) {
			srv := newServer(t, Config{Workers: 2, Sync: syncMode, Clock: NewScriptClock(), QueueDepth: 4})
			const streams = 3
			ids := make([]int, streams)
			for i := range ids {
				ids[i] = admit(t, srv, "cam")
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for _, id := range ids {
				wg.Add(2)
				go func(path string) { // ingest until the door closes
					defer wg.Done()
					for {
						rec := do(t, srv, "POST", path, "cam", `{"frames":[{"w":64,"h":48},{"w":64,"h":48}]}`)
						if rec.Code == http.StatusServiceUnavailable {
							return
						}
						if rec.Code != http.StatusAccepted {
							t.Errorf("ingest: status %d, body %s", rec.Code, rec.Body)
							return
						}
					}
				}(fmt.Sprintf("/v1/streams/%d/frames", id))
				go func(path string) { // poll until drain is over
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						rec := do(t, srv, "GET", path, "cam", "")
						var res ResultsReply
						if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &res) != nil {
							t.Errorf("results: status %d, body %s", rec.Code, rec.Body)
							return
						}
						// A frame counts as served only once its result is
						// in the reply.
						if res.From+len(res.Results) != res.Served {
							t.Errorf("results: from %d + %d results, served %d", res.From, len(res.Results), res.Served)
							return
						}
					}
				}(fmt.Sprintf("/v1/streams/%d/results", id))
			}
			deadline := time.Now().Add(time.Minute)
			for _, id := range ids { // every stream takes traffic before drain
				for res := engineResults(t, srv, id, 0); res.Offered < 4; res = engineResults(t, srv, id, 0) {
					if time.Now().After(deadline) {
						t.Fatalf("stream %d took no traffic before drain", id)
					}
					time.Sleep(time.Millisecond)
				}
			}
			srv.Drain()
			close(stop)
			wg.Wait()
			for _, id := range ids {
				res, _ := resultsOf(t, srv, id)
				if res.Offered == 0 || res.Offered != res.Served+res.Dropped || res.Queued != 0 {
					t.Errorf("stream %d after drain: offered %d served %d dropped %d queued %d",
						id, res.Offered, res.Served, res.Dropped, res.Queued)
				}
			}
			if rec := do(t, srv, "POST", fmt.Sprintf("/v1/streams/%d/frames", ids[0]), "cam", frameBody); rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("late ingest: status %d, want 503", rec.Code)
			}
			if _, err := srv.engine.ingest(ids[0], []FrameSpec{{W: 64, H: 48}}); err != ErrDraining {
				t.Fatalf("late ingest: err %v, want ErrDraining", err)
			}
		})
	}
}

// TestIdleStreamsHoldNoGoroutines: an admitted stream with nothing queued
// costs no goroutine, and a stream's runner is gone once its queue is.
func TestIdleStreamsHoldNoGoroutines(t *testing.T) {
	srv := newServer(t, Config{Workers: 2, Clock: NewScriptClock()})
	defer srv.Drain()
	base := runtime.NumGoroutine()
	const streams = 64
	for i := 0; i < streams; i++ {
		admit(t, srv, "cam")
	}
	if n := runtime.NumGoroutine(); n > base+streams/8 {
		t.Fatalf("%d idle streams raised the goroutine count from %d to %d", streams, base, n)
	}
	for id := 0; id < streams; id++ {
		if rec := do(t, srv, "POST", fmt.Sprintf("/v1/streams/%d/frames", id), "cam", `{"frames":[{"w":64,"h":48}]}`); rec.Code != http.StatusAccepted {
			t.Fatalf("ingest %d: status %d, body %s", id, rec.Code, rec.Body)
		}
	}
	deadline := time.Now().Add(time.Minute)
	for id := 0; id < streams; id++ {
		for res, _ := resultsOf(t, srv, id); res.Served != 1; res, _ = resultsOf(t, srv, id) {
			if time.Now().After(deadline) {
				t.Fatalf("stream %d never served its frame: %+v", id, res)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// A runner returns just after settling its stream's last frame.
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines stayed at %d after every stream was served, baseline %d", n, base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScrapeWhileServing scrapes /metrics while streams ingest and settle on
// their runners: the frame step writes its metric handles under the engine's
// lock and no other, so under -race this pins that a scrape takes that lock
// too. Every scrape is well formed, its served count never goes backwards,
// and the scrape after Drain accounts for every frame offered.
func TestScrapeWhileServing(t *testing.T) {
	srv := newServer(t, Config{Workers: 2, Clock: NewScriptClock(), QueueDepth: 4})
	const streams, posts = 3, 6
	counter := func(body, name string) int {
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				n, err := strconv.Atoi(v)
				if err != nil {
					t.Errorf("%s: %v", line, err)
				}
				return n
			}
		}
		return 0
	}
	scrape := func() string {
		rec := do(t, srv, "GET", "/metrics", "", "")
		if rec.Code != http.StatusOK {
			t.Errorf("scrape: status %d", rec.Code)
		}
		return rec.Body.String()
	}

	var ingest sync.WaitGroup
	for i := 0; i < streams; i++ {
		path := fmt.Sprintf("/v1/streams/%d/frames", admit(t, srv, "cam"))
		ingest.Add(1)
		go func() {
			defer ingest.Done()
			for p := 0; p < posts; p++ {
				if rec := do(t, srv, "POST", path, "cam", `{"frames":[{"w":64,"h":48},{"w":64,"h":48}]}`); rec.Code != http.StatusAccepted {
					t.Errorf("ingest: status %d, body %s", rec.Code, rec.Body)
				}
			}
		}()
	}
	ingested := make(chan struct{})
	go func() {
		ingest.Wait()
		close(ingested)
	}()
	served, scrapes := 0, 0
	for done := false; !done || scrapes < 2; scrapes++ {
		select {
		case <-ingested:
			done = true
		default:
		}
		n := counter(scrape(), "adascale_frames_served")
		if n < served {
			t.Fatalf("frames/served went from %d to %d between scrapes", served, n)
		}
		served = n
	}
	srv.Drain()
	body := scrape()
	offered := counter(body, "adascale_frames_offered")
	if offered != streams*posts*2 || offered != counter(body, "adascale_frames_served")+counter(body, "adascale_frames_dropped") {
		t.Fatalf("after drain: offered %d served %d dropped %d, want %d offered, all served or dropped",
			offered, counter(body, "adascale_frames_served"), counter(body, "adascale_frames_dropped"), streams*posts*2)
	}
}
