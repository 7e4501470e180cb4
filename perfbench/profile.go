package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the program's modules as the per-layer metrics name them.
// Nested packages fold into their parent (workload/hpl into workload,
// cr/protocol into cr, storage/tier into storage); runtime takes every
// sample with no frame in one of the others.
var layers = []string{"sim", "ib", "mpi", "storage", "blcr", "cr", "fault", "workload", "harness", "obs", "runtime"}

const modulePrefix = "gbcr/internal/"

// layerOf attributes a stack, given as function names leaf first, to the
// layer of its innermost frame in a known gbcr/internal package.
func layerOf(frames []string) string {
	for _, fn := range frames {
		rest, ok := strings.CutPrefix(fn, modulePrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "/."); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers[:len(layers)-1] {
			if rest == l {
				return l
			}
		}
	}
	return "runtime"
}

// profileByLayer decodes a pprof profile (gzip-compressed protobuf, as
// runtime/pprof writes it) and sums the values of the named sample type by
// layer. It also returns the profile's total for that sample type.
func profileByLayer(data []byte, sampleType string) (map[string]float64, float64, error) {
	p, err := decodeProfile(data)
	if err != nil {
		return nil, 0, err
	}
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st) == sampleType {
			vi = i
		}
	}
	if vi < 0 {
		return nil, 0, fmt.Errorf("profile has no %q samples", sampleType)
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	var total float64
	var frames []string
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, 0, errors.New("profile sample has too few values")
		}
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locations[loc] {
				frames = append(frames, p.str(p.functions[fid]))
			}
		}
		v := float64(s.values[vi])
		out[layerOf(frames)] += v
		total += v
	}
	return out, total, nil
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost inlined first
	functions   map[uint64]int64    // function id -> string-table index of its name
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers from profile.proto.
const (
	fProfileSampleType  = 1
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6
	fValueTypeType      = 1
	fSampleLocationID   = 1
	fSampleValue        = 2
	fLocationID         = 1
	fLocationLine       = 4
	fLineFunctionID     = 1
	fFunctionID         = 1
	fFunctionName       = 2
)

func decodeProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := walk(data, func(field int, v uint64, b []byte) error {
		switch field {
		case fProfileSampleType:
			var typ int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				if f == fValueTypeType {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case fProfileSample:
			var s sample
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case fSampleLocationID:
					return repeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return repeated(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == fLineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileStringTable:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// walk calls fn for each field of a protobuf message: v holds a varint or
// fixed value, b the bytes of a length-delimited one.
func walk(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("truncated fixed64 field")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 5:
			if len(data) < 4 {
				return errors.New("truncated fixed32 field")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field, packed (b set) or not.
func repeated(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
