package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"adascale/internal/detect"
	"adascale/internal/raster"
	"adascale/internal/synth"
)

// This file is the frame-ingestion wire format: the JSON a camera client
// POSTs to /v1/streams/{id}/frames, its decoder, and the bridge into
// synth.NewFrame. The decoder is strict — unknown fields, non-finite
// numbers, out-of-range geometry and oversized batches are all typed
// errors, never best-effort repairs — because everything it accepts flows
// straight into the detector on a pool worker, and the fuzz harness
// (FuzzIngestDecode) holds it to "reject or serve, never panic".
//
// Decoding has two stages. A reflection-free scanner (ingestScan) reads the
// canonical form of the document — exact-case unescaped known keys, each
// at most once, JSON numbers and whitespace, nothing after the closing
// brace — and declines every other body. A declined body goes, unchanged,
// to encoding/json, which defines the accepted language and every error
// text; where the scanner accepts, it builds exactly what encoding/json
// would (FuzzIngestScan holds it to that), so the scanner changes what
// decoding costs and nothing a client can observe.

// Ingestion bounds. They cap the work one request can buy: frames per
// batch, objects per frame, and frame geometry the rasteriser and the
// simclock cost model are calibrated for.
const (
	MaxFramesPerRequest = 256
	MaxObjectsPerFrame  = 64
	MaxFrameDim         = 4096
	MinFrameDim         = 16
	maxBodyBytes        = 1 << 20 // request bodies beyond 1 MiB are refused
)

// ObjectSpec is one object of an ingested frame, in native coordinates.
type ObjectSpec struct {
	ID        int     `json:"id"`
	Class     int     `json:"class"`
	X1        float64 `json:"x1"`
	Y1        float64 `json:"y1"`
	X2        float64 `json:"x2"`
	Y2        float64 `json:"y2"`
	Texture   int     `json:"texture,omitempty"`   // raster.Texture ordinal (0..4)
	Intensity float64 `json:"intensity,omitempty"` // [0, 1]; 0 means default 0.8
	Speed     float64 `json:"speed,omitempty"`     // native px/frame, drives blur
}

// FrameSpec is one ingested frame: geometry, content and rendering
// parameters. The deterministic randomness base is *not* on the wire — it
// derives from (server seed, stream, index), so a replayed request script
// reproduces detections exactly.
type FrameSpec struct {
	W       int          `json:"w"`
	H       int          `json:"h"`
	Clutter float64      `json:"clutter,omitempty"` // [0, 1]
	Blur    float64      `json:"blur,omitempty"`    // native px, [0, 64]
	Objects []ObjectSpec `json:"objects,omitempty"`
}

// IngestRequest is the body of POST /v1/streams/{id}/frames.
type IngestRequest struct {
	Frames []FrameSpec `json:"frames"`
}

// RequestError is the typed error the decoders return for a rejected
// request body, so handlers can map it to 400 with the offending field.
type RequestError struct {
	Field  string // which part of the request was rejected
	Reason string // why
}

// Error implements the error interface.
func (e *RequestError) Error() string {
	return fmt.Sprintf("server: invalid request: %s: %s", e.Field, e.Reason)
}

// finite reports whether v is a usable number (not NaN or ±Inf).
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// DecodeIngest parses and validates a frame-ingestion body against the
// serving system's class vocabulary. It returns a typed *RequestError on
// any rejection; a nil error guarantees every frame in the request is safe
// to hand to the detector. Nothing it returns aliases body.
func DecodeIngest(body []byte, numClasses int) (*IngestRequest, error) {
	req, ok := scanIngest(body)
	if !ok {
		var err error
		if req, err = decodeIngestJSON(body); err != nil {
			return nil, err
		}
	}
	if len(req.Frames) == 0 {
		return nil, &RequestError{Field: "frames", Reason: "empty batch"}
	}
	if len(req.Frames) > MaxFramesPerRequest {
		return nil, &RequestError{Field: "frames", Reason: fmt.Sprintf("batch of %d exceeds limit %d", len(req.Frames), MaxFramesPerRequest)}
	}
	for i := range req.Frames {
		if err := validateFrame(&req.Frames[i], i, numClasses); err != nil {
			return nil, err
		}
	}
	return req, nil
}

// decodeIngestJSON is the reference decoder: encoding/json with unknown
// fields refused and only whitespace after the document.
func decodeIngestJSON(body []byte) (*IngestRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req IngestRequest
	if err := dec.Decode(&req); err != nil {
		return nil, &RequestError{Field: "body", Reason: err.Error()}
	}
	// A second document, or any byte, after the first is a malformed
	// request, not trailing noise to ignore.
	if len(bytes.TrimLeft(body[dec.InputOffset():], jsonSpace)) > 0 {
		return nil, &RequestError{Field: "body", Reason: "trailing data after JSON document"}
	}
	return &req, nil
}

const jsonSpace = " \t\n\r" // the whitespace JSON allows between tokens

// ingestScan reads the canonical form of an ingest document without
// reflection, into two arenas. A departure from the form sets bad; the scan
// then only unwinds and the body is declined. The document's three levels
// are three functions, none recursive, so member tables stay on the stack.
type ingestScan struct {
	b      []byte
	i      int
	bad    bool
	frames []FrameSpec
	objs   []ObjectSpec // every frame's objects, back to back
}

// scanIngest decodes body if it is in canonical form. Each frame and object
// opens with a brace, so that count, capped against hostile bodies, sizes
// the arenas: a request costs three allocations.
func scanIngest(body []byte) (*IngestRequest, bool) {
	n := min(bytes.Count(body, []byte("{")), 64)
	s := ingestScan{b: body, frames: make([]FrameSpec, 0, n), objs: make([]ObjectSpec, 0, n)}
	req := &IngestRequest{}
	s.request(req)
	return req, !s.bad
}

// member is a key an object may have and where its number goes: an *int or
// *float64, or nil for an array the caller reads.
type member struct {
	key string
	dst any
}

// request reads the body into req: one object, then only whitespace.
func (s *ingestScan) request(req *IngestRequest) {
	ms := [...]member{{"frames", nil}}
	var seen uint
	for more := s.open('{', '}'); more; more = s.next('}') {
		if s.key(ms[:], &seen) < 0 {
			continue
		}
		for more := s.open('[', ']'); more; more = s.next(']') {
			s.frames = append(s.frames, FrameSpec{})
			s.frame(&s.frames[len(s.frames)-1])
		}
		req.Frames = s.frames
	}
	if s.space(); s.i != len(s.b) {
		s.bad = true
	}
}

// frame reads one frame object into f.
func (s *ingestScan) frame(f *FrameSpec) {
	ms := [...]member{{"w", &f.W}, {"h", &f.H}, {"clutter", &f.Clutter}, {"blur", &f.Blur}, {"objects", nil}}
	var seen uint
	for more := s.open('{', '}'); more; more = s.next('}') {
		switch k := s.key(ms[:], &seen); {
		case k < 0:
		case ms[k].dst != nil:
			s.number(ms[k].dst)
		default: // objects
			first := len(s.objs)
			for more := s.open('[', ']'); more; more = s.next(']') {
				s.objs = append(s.objs, ObjectSpec{})
				s.object(&s.objs[len(s.objs)-1])
			}
			f.Objects = s.objs[first:len(s.objs):len(s.objs)]
		}
	}
}

// object reads one object spec into o.
func (s *ingestScan) object(o *ObjectSpec) {
	ms := [...]member{{"id", &o.ID}, {"class", &o.Class}, {"x1", &o.X1}, {"y1", &o.Y1}, {"x2", &o.X2}, {"y2", &o.Y2},
		{"texture", &o.Texture}, {"intensity", &o.Intensity}, {"speed", &o.Speed}}
	var seen uint
	for more := s.open('{', '}'); more; more = s.next('}') {
		if k := s.key(ms[:], &seen); k >= 0 {
			s.number(ms[k].dst)
		}
	}
}

// key reads a member's key and colon and returns the key's index in ms. A
// key not in ms verbatim (escaped, case-folded, unknown) or seen before in
// this object makes the body bad.
func (s *ingestScan) key(ms []member, seen *uint) int {
	k := -1
	if s.take('"') {
		if n := bytes.IndexByte(s.b[s.i:], '"'); n >= 0 {
			for j := range ms {
				if string(s.b[s.i:s.i+n]) == ms[j].key {
					k = j
					break
				}
			}
			s.i += n + 1
		}
	}
	if k < 0 || *seen&(1<<k) != 0 || !s.take(':') {
		s.bad = true
		return -1
	}
	*seen |= 1 << k
	return k
}

// number reads a JSON number, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
// into an *int or *float64 with the strconv call encoding/json makes.
func (s *ingestScan) number(dst any) {
	s.space()
	start := s.i
	s.skip('-')
	ok := s.skip('0') || s.digits()
	if s.skip('.') && !s.digits() {
		ok = false
	}
	if s.skip('e') || s.skip('E') {
		if !s.skip('+') {
			s.skip('-')
		}
		if !s.digits() {
			ok = false
		}
	}
	if s.bad = s.bad || !ok; s.bad {
		return
	}
	var err error
	switch d := dst.(type) {
	case *int:
		var v int64
		v, err = strconv.ParseInt(string(s.b[start:s.i]), 10, 64)
		*d = int(v)
	case *float64:
		*d, err = strconv.ParseFloat(string(s.b[start:s.i]), 64)
	}
	s.bad = err != nil
}

// skip consumes the next byte if it is c.
func (s *ingestScan) skip(c byte) bool {
	if s.bad || s.i == len(s.b) || s.b[s.i] != c {
		return false
	}
	s.i++
	return true
}

// digits consumes a run of decimal digits, reporting whether there was one.
func (s *ingestScan) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// space skips JSON whitespace.
func (s *ingestScan) space() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// take consumes c after whitespace, reporting whether it was there.
func (s *ingestScan) take(c byte) bool {
	s.space()
	return s.skip(c)
}

// open consumes an object's or array's opening byte and reports whether an
// element follows (false: it is empty, and closed).
func (s *ingestScan) open(open, close byte) bool {
	s.bad = s.bad || !s.take(open)
	return !s.bad && !s.take(close)
}

// next consumes the comma before a further element and reports it, or
// consumes the closing byte.
func (s *ingestScan) next(close byte) bool {
	if s.take(',') {
		return true
	}
	s.bad = s.bad || !s.take(close)
	return false
}

// validateFrame checks one frame spec; i names it in errors.
func validateFrame(f *FrameSpec, i, numClasses int) error {
	bad := func(field, format string, args ...any) error {
		return &RequestError{Field: fmt.Sprintf("frames[%d].%s", i, field), Reason: fmt.Sprintf(format, args...)}
	}
	if f.W < MinFrameDim || f.W > MaxFrameDim {
		return bad("w", "width %d outside [%d, %d]", f.W, MinFrameDim, MaxFrameDim)
	}
	if f.H < MinFrameDim || f.H > MaxFrameDim {
		return bad("h", "height %d outside [%d, %d]", f.H, MinFrameDim, MaxFrameDim)
	}
	if !finite(f.Clutter) || f.Clutter < 0 || f.Clutter > 1 {
		return bad("clutter", "%v outside [0, 1]", f.Clutter)
	}
	if !finite(f.Blur) || f.Blur < 0 || f.Blur > 64 {
		return bad("blur", "%v outside [0, 64]", f.Blur)
	}
	if len(f.Objects) > MaxObjectsPerFrame {
		return bad("objects", "%d objects exceed limit %d", len(f.Objects), MaxObjectsPerFrame)
	}
	for j, o := range f.Objects {
		obad := func(field, format string, args ...any) error {
			return bad(fmt.Sprintf("objects[%d].%s", j, field), format, args...)
		}
		if o.Class < 0 || o.Class >= numClasses {
			return obad("class", "class %d outside the serving system's %d classes", o.Class, numClasses)
		}
		for _, c := range [...]struct {
			name string
			v    float64
		}{{"x1", o.X1}, {"y1", o.Y1}, {"x2", o.X2}, {"y2", o.Y2}} {
			if !finite(c.v) || c.v < -float64(MaxFrameDim) || c.v > 2*float64(MaxFrameDim) {
				return obad(c.name, "coordinate %v not finite or far outside the frame", c.v)
			}
		}
		if o.X2 <= o.X1 || o.Y2 <= o.Y1 {
			return obad("x2", "degenerate box [%v,%v,%v,%v]", o.X1, o.Y1, o.X2, o.Y2)
		}
		if o.Texture < int(raster.TextureSolid) || o.Texture > int(raster.TextureDots) {
			return obad("texture", "texture %d outside [0, %d]", o.Texture, int(raster.TextureDots))
		}
		if !finite(o.Intensity) || o.Intensity < 0 || o.Intensity > 1 {
			return obad("intensity", "%v outside [0, 1]", o.Intensity)
		}
		if !finite(o.Speed) || o.Speed < 0 || o.Speed > 1000 {
			return obad("speed", "%v outside [0, 1000]", o.Speed)
		}
	}
	return nil
}

// frame materialises the validated spec as a synth.Frame for (stream,
// index), deriving the deterministic randomness base from the server seed.
func (f *FrameSpec) frame(seed int64, stream, index int) *synth.Frame {
	objs := make([]synth.Object, len(f.Objects))
	for j, o := range f.Objects {
		intensity := o.Intensity
		if intensity == 0 {
			intensity = 0.8
		}
		objs[j] = synth.Object{
			ID:        o.ID,
			Class:     o.Class,
			Box:       detect.Box{X1: o.X1, Y1: o.Y1, X2: o.X2, Y2: o.Y2},
			Texture:   raster.Texture(o.Texture),
			Intensity: float32(intensity),
			Speed:     o.Speed,
		}
	}
	fr := synth.NewFrame(seed, synth.FrameSpec{
		Stream: stream, Index: index,
		W: f.W, H: f.H,
		Objects: objs,
		Clutter: f.Clutter,
		Blur:    f.Blur,
	})
	return &fr
}
