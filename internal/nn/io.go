package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// weightsMagic identifies the serialised weight format; bump the trailing
// digit on incompatible changes.
const weightsMagic = "ADASCALE-NN-1\n"

// SaveParams serialises parameters to w: magic, count, then for each
// parameter its name, shape and raw float32 data, all little-endian.
func SaveParams(w io.Writer, params []*Param) error {
	if _, err := io.WriteString(w, weightsMagic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := writeString(w, p.Name); err != nil {
			return err
		}
		shape := p.W.Shape()
		if err := binary.Write(w, binary.LittleEndian, uint32(len(shape))); err != nil {
			return err
		}
		for _, d := range shape {
			if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
				return err
			}
		}
		data := p.W.Data()
		buf := make([]byte, 4*len(data))
		for i, v := range data {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// LoadParams reads weights written by SaveParams into params, matching by
// position. Names and shapes must agree with the targets. It is all or
// nothing: the whole file is read and checked before any parameter is
// written, so on an error every parameter keeps its value.
func LoadParams(r io.Reader, params []*Param) error {
	magic := make([]byte, len(weightsMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("nn: reading magic: %w", err)
	}
	if string(magic) != weightsMagic {
		return fmt.Errorf("nn: bad weights magic %q", magic)
	}
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return err
	}
	if int(count) != len(params) {
		return fmt.Errorf("nn: weight file has %d params, expected %d", count, len(params))
	}
	staged := make([][]byte, len(params))
	for i, p := range params {
		name, err := readString(r)
		if err != nil {
			return err
		}
		if name != p.Name {
			return fmt.Errorf("nn: weight name %q does not match parameter %q", name, p.Name)
		}
		var ndim uint32
		if err := binary.Read(r, binary.LittleEndian, &ndim); err != nil {
			return err
		}
		shape := p.W.Shape()
		if int(ndim) != len(shape) {
			return fmt.Errorf("nn: param %q has %d dims on disk, expected %d", name, ndim, len(shape))
		}
		for k := range shape {
			var d uint32
			if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
				return err
			}
			if int(d) != shape[k] {
				return fmt.Errorf("nn: param %q dim %d is %d on disk, expected %d", name, k, d, shape[k])
			}
		}
		staged[i] = make([]byte, 4*p.W.Size())
		if _, err := io.ReadFull(r, staged[i]); err != nil {
			return fmt.Errorf("nn: reading param %q: %w", name, err)
		}
	}
	for i, p := range params {
		data := p.W.Data()
		for j := range data {
			data[j] = math.Float32frombits(binary.LittleEndian.Uint32(staged[i][4*j:]))
		}
	}
	return nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("nn: unreasonable string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
