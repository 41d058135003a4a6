package server

import (
	"reflect"
	"testing"
)

// FuzzIngestDecode holds the ingestion decoder to "reject or accept, never
// panic": whatever bytes arrive on the wire, DecodeIngest either returns a
// typed *RequestError or an IngestRequest every frame of which survives
// the full validation gauntlet — the property that makes it safe to hand
// decoded frames straight to the detector.
func FuzzIngestDecode(f *testing.F) {
	seeds := []string{
		`{"frames":[{"w":320,"h":240}]}`,
		`{"frames":[{"w":64,"h":64,"clutter":0.5,"blur":2,"objects":[{"id":1,"class":0,"x1":4,"y1":4,"x2":40,"y2":40,"texture":1,"intensity":0.7,"speed":3}]}]}`,
		`{"frames":[]}`,
		`{"frames":[{"w":8,"h":8}]}`,
		`{"frames":[{"w":64,"h":64,"objects":[{"class":99,"x1":0,"y1":0,"x2":1,"y2":1}]}]}`,
		`{"frames":[{"w":64,"h":64,"clutter":1e308}]}`,
		`not json at all`,
		`{"frames":[{"w":64,"h":64}]}{"frames":[{"w":64,"h":64}]}`,
		`{"frames":[{"w":64,"h":64}]}]`,
		`{"frames":[{"w":64,"h":64}]}}garbage`,
		`{"frames":[{"w":64,"h":64,"unknown":true}]}`,
		`{}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeIngest(data, testClasses)
		if err != nil {
			if req != nil {
				t.Fatal("error with non-nil request")
			}
			if _, ok := err.(*RequestError); !ok {
				t.Fatalf("decode error is not a *RequestError: %T %v", err, err)
			}
			return
		}
		// Accepted input must be fully materialisable: every frame builds
		// without panicking and respects the validated bounds.
		if len(req.Frames) == 0 || len(req.Frames) > MaxFramesPerRequest {
			t.Fatalf("accepted batch of %d frames", len(req.Frames))
		}
		for i := range req.Frames {
			fs := &req.Frames[i]
			if fs.W < MinFrameDim || fs.W > MaxFrameDim || fs.H < MinFrameDim || fs.H > MaxFrameDim {
				t.Fatalf("accepted frame %d with geometry %dx%d", i, fs.W, fs.H)
			}
			fr := fs.frame(1, 0, i)
			if fr.W != fs.W || fr.H != fs.H || len(fr.Objects) != len(fs.Objects) {
				t.Fatalf("materialised frame diverges from spec: %+v vs %+v", fr, fs)
			}
			for _, o := range fr.Objects {
				if o.Class < 0 || o.Class >= testClasses {
					t.Fatalf("accepted class %d outside vocabulary", o.Class)
				}
			}
		}
	})
}

// FuzzIngestScan holds the reflection-free scanner to encoding/json: any
// body the scanner accepts, the reference decoder (unknown fields refused,
// nothing after the document) accepts too, into a request DeepEqual to the
// scanner's — nil and empty slices told apart. A body the scanner declines
// is not checked here: it goes to the reference decoder unchanged.
func FuzzIngestScan(f *testing.F) {
	seeds := []string{
		hotFrameBody,
		`{"frames":[{"w":-0,"h":1e2,"clutter":-0,"blur":1E+2,"objects":[]}]}`,
		` { "frames" : [ { "w" : 64 , "h" : 64 , "objects" : [ { "id" : 1 , "x1" : 0.5 } ] } ] } ` + "\t\r\n",
		`{"frames":[]}`,
		`{}`,
		`{"frames":[{"w":64,"h":64},{"w":32,"h":32,"objects":[{"class":1},{"class":2}]}]}`,
		`{"frames":[{"W":64}]}`,
		`{"frames":[{"w":64,"w":64}]}`,
		`{"fr\u0061mes":[]}`,
		`{"frames":null}`,
		`{"frames":[{"w":1.5}]}`,
		`{"frames":[{"clutter":1e400}]}`,
		`{"frames":[{"w":64,"h":64}]}]`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := scanIngest(data)
		if !ok {
			return
		}
		want, err := decodeIngestJSON(data)
		if err != nil {
			t.Fatalf("scanner accepted %q, encoding/json refused it: %v", data, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scanner and encoding/json disagree on %q:\n scan %+v\n json %+v", data, got, want)
		}
	})
}
