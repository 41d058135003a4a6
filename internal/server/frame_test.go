package server

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

const testClasses = 8

func TestDecodeIngestAccepts(t *testing.T) {
	body := `{"frames":[
		{"w":320,"h":240},
		{"w":64,"h":64,"clutter":0.5,"blur":2.5,
		 "objects":[{"id":3,"class":7,"x1":1,"y1":2,"x2":30,"y2":40,
		             "texture":2,"intensity":0.4,"speed":12}]}
	]}`
	req, err := DecodeIngest([]byte(body), testClasses)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Frames) != 2 || len(req.Frames[1].Objects) != 1 {
		t.Fatalf("decoded %+v", req)
	}
}

func TestDecodeIngestRejects(t *testing.T) {
	obj := func(field, val string) string {
		o := map[string]string{"id": "1", "class": "0", "x1": "10", "y1": "10", "x2": "50", "y2": "50"}
		o[field] = val
		return fmt.Sprintf(`{"id":%s,"class":%s,"x1":%s,"y1":%s,"x2":%s,"y2":%s,"texture":%s,"intensity":%s,"speed":%s}`,
			pick(o, "id"), pick(o, "class"), pick(o, "x1"), pick(o, "y1"), pick(o, "x2"), pick(o, "y2"),
			pick(o, "texture"), pick(o, "intensity"), pick(o, "speed"))
	}
	withObj := func(o string) string {
		return `{"frames":[{"w":320,"h":240,"objects":[` + o + `]}]}`
	}
	cases := []struct {
		name, body, wantField string
	}{
		{"not json", `nope`, "body"},
		{"trailing document", `{"frames":[{"w":64,"h":64}]}{"frames":[]}`, "body"},
		{"trailing bracket", `{"frames":[{"w":64,"h":64}]}]`, "body"},
		{"trailing brace and garbage", `{"frames":[{"w":64,"h":64}]}}garbage`, "body"},
		{"unknown field", `{"frames":[{"w":64,"h":64,"wat":1}]}`, "body"},
		{"empty batch", `{"frames":[]}`, "frames"},
		{"missing frames", `{}`, "frames"},
		{"width too small", `{"frames":[{"w":8,"h":64}]}`, "frames[0].w"},
		{"height too big", `{"frames":[{"w":64,"h":9999}]}`, "frames[0].h"},
		{"clutter out of range", `{"frames":[{"w":64,"h":64,"clutter":1.5}]}`, "frames[0].clutter"},
		{"blur negative", `{"frames":[{"w":64,"h":64,"blur":-1}]}`, "frames[0].blur"},
		{"class out of vocab", withObj(obj("class", "99")), "frames[0].objects[0].class"},
		{"class negative", withObj(obj("class", "-1")), "frames[0].objects[0].class"},
		{"degenerate box", withObj(obj("x2", "10")), "frames[0].objects[0].x2"},
		{"far coordinate", withObj(obj("x1", "-99999")), "frames[0].objects[0].x1"},
		{"bad texture", withObj(obj("texture", "9")), "frames[0].objects[0].texture"},
		{"bad intensity", withObj(obj("intensity", "2")), "frames[0].objects[0].intensity"},
		{"bad speed", withObj(obj("speed", "-5")), "frames[0].objects[0].speed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeIngest([]byte(tc.body), testClasses)
			var rerr *RequestError
			if !errors.As(err, &rerr) {
				t.Fatalf("DecodeIngest() err = %v, want *RequestError", err)
			}
			if rerr.Field != tc.wantField {
				t.Fatalf("RequestError.Field = %q, want %q", rerr.Field, tc.wantField)
			}
		})
	}
}

// pick exists so the object template above reads as a table.
func pick(m map[string]string, k string) string {
	if v, ok := m[k]; ok {
		return v
	}
	return "0"
}

func TestDecodeIngestBatchLimit(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"frames":[`)
	for i := 0; i <= MaxFramesPerRequest; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(`{"w":64,"h":64}`)
	}
	b.WriteString(`]}`)
	_, err := DecodeIngest([]byte(b.String()), testClasses)
	var rerr *RequestError
	if !errors.As(err, &rerr) || rerr.Field != "frames" {
		t.Fatalf("oversized batch: err = %v", err)
	}
}

// TestFrameSeedDeterminism pins the wire→synth bridge: the randomness base
// is a pure function of (server seed, stream, index) — identical
// coordinates give identical seeds, any coordinate changing reseeds the
// frame, and the track seed is shared by every frame of the stream.
func TestFrameSeedDeterminism(t *testing.T) {
	spec := FrameSpec{W: 64, H: 48, Clutter: 0.3,
		Objects: []ObjectSpec{{ID: 1, Class: 2, X1: 4, Y1: 4, X2: 40, Y2: 40}}}
	a := spec.frame(7, 0, 3)
	b := spec.frame(7, 0, 3)
	if a.W != 64 || a.H != 48 || a.Index != 3 || len(a.Objects) != 1 {
		t.Fatalf("frame %+v", a)
	}
	if a.Seed() != b.Seed() || a.TrackSeed() != b.TrackSeed() {
		t.Fatalf("same (seed, stream, index) gave different randomness bases: %d/%d vs %d/%d",
			a.Seed(), a.TrackSeed(), b.Seed(), b.TrackSeed())
	}
	if c := spec.frame(8, 0, 3); c.Seed() == a.Seed() {
		t.Fatal("changing the server seed did not reseed the frame")
	}
	if c := spec.frame(7, 1, 3); c.Seed() == a.Seed() || c.TrackSeed() == a.TrackSeed() {
		t.Fatal("changing the stream did not reseed the frame and its track")
	}
	if c := spec.frame(7, 0, 4); c.Seed() == a.Seed() {
		t.Fatal("changing the index did not reseed the frame")
	}
	if c := spec.frame(7, 0, 4); c.TrackSeed() != a.TrackSeed() {
		t.Fatal("frames of one stream must share the track seed")
	}
}

func TestFrameDefaultIntensity(t *testing.T) {
	spec := FrameSpec{W: 64, H: 64,
		Objects: []ObjectSpec{{ID: 1, Class: 0, X1: 4, Y1: 4, X2: 40, Y2: 40}}}
	fr := spec.frame(1, 0, 0)
	if got := fr.Objects[0].Intensity; got != 0.8 {
		t.Fatalf("default intensity = %v, want 0.8", got)
	}
}

// TestScanIngestCanonicalOnly pins which bodies the scanner takes itself
// and which it leaves to encoding/json, and that what it takes matches.
func TestScanIngestCanonicalOnly(t *testing.T) {
	for _, body := range []string{
		hotFrameBody,
		`{"frames":[{"w":-0,"blur":1e2,"clutter":-0,"objects":[]}]} `,
		`{}`,
	} {
		got, ok := scanIngest([]byte(body))
		want, err := decodeIngestJSON([]byte(body))
		if !ok || err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: scanned %v (%+v), encoding/json %+v err %v", body, ok, got, want, err)
		}
	}
	for _, body := range []string{
		`null`, `"frames"`, `[]`, ``, ` `,
		`{"Frames":[]}`, `{"fr\u0061mes":[]}`, `{"frames":[],"frames":[]}`,
		`{"frames":null}`, `{"frames":[{"objects":null}]}`, `{"frames":[{"w":"64"}]}`,
		`{"frames":[{"w":1.0}]}`, `{"frames":[{"w":99999999999999999999}]}`, `{"frames":[{"blur":1e999}]}`,
		`{"frames":[{"w":01}]}`, `{"frames":[{"w":+1}]}`, `{"frames":[{"w":.5}]}`, `{"frames":[{"blur":1.}]}`,
		`{"frames":[{"blur":1e}]}`, `{"frames":[{"w":-}]}`, `{"frames":[{"w":1,}]}`, `{"frames":[],}`,
		`{"frames":[{"w":64}]}]`, `{"frames":[{"w":64}]} x`, `{"frames":[{"wat":1}]}`,
	} {
		if req, ok := scanIngest([]byte(body)); ok {
			t.Errorf("%s: scanned as %+v, want it declined", body, req)
		}
	}
}
