package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// layerPrefix is the import-path prefix of the simulator's modules.
const layerPrefix = "ctqosim/internal/"

// layerOf returns the layer a symbolized function belongs to, or "" if it
// is not in one of the layers (the runtime, the standard library, the
// benchmark driver, and repository packages outside the layer list).
func layerOf(function string) string {
	rest, ok := strings.CutPrefix(function, layerPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return ""
}

// bucketOf charges a stack, given leaf first, to the innermost layer
// frame on it; a stack with no layer frame goes to the gc bucket.
// Runtime frames such as mallocgc therefore count against the layer that
// called them, and only work no layer asked for — background GC, the
// scheduler, the driver — lands in gc.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	return gcBucket
}

var errProto = errors.New("malformed profile protobuf")

// protoField is one decoded protobuf field: a varint or fixed value, or
// the payload of a length-delimited field.
type protoField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

// eachField decodes the fields of a protobuf message in order.
func eachField(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.val, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			f.val, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			size, n := binary.Uvarint(b)
			if n <= 0 || size > uint64(len(b)-n) {
				return errProto
			}
			f.data, b = b[n:n+int(size)], b[n+int(size):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			f.val, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// appendInts decodes a repeated integer field, packed or not.
func appendInts(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	if f.wire != 2 {
		return dst, errProto
	}
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errProto
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// cpuSample is one profile sample: location ids leaf first, and values.
type cpuSample struct {
	locations []uint64
	values    []uint64
}

// cpuProfile is the part of a pprof profile the bucketer needs
// (profile.proto: sample_type=1, sample=2, location=4, function=5,
// string_table=6).
type cpuProfile struct {
	units     []uint64            // string index of each sample type's unit
	samples   []cpuSample         // in file order
	locations map[uint64][]uint64 // location id -> function ids, innermost inlined first
	functions map[uint64]uint64   // function id -> name string index
	strings   []string
}

func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &cpuProfile{locations: make(map[uint64][]uint64), functions: make(map[uint64]uint64)}
	err = eachField(raw, func(f protoField) error {
		switch f.num {
		case 1: // ValueType{type=1, unit=2}
			return eachField(f.data, func(g protoField) error {
				if g.num == 2 {
					p.units = append(p.units, g.val)
				}
				return nil
			})
		case 2: // Sample{location_id=1, value=2}
			var s cpuSample
			err := eachField(f.data, func(g protoField) error {
				var err error
				switch g.num {
				case 1:
					s.locations, err = appendInts(s.locations, g)
				case 2:
					s.values, err = appendInts(s.values, g)
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location{id=1, line=4{function_id=1}}
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4:
					return eachField(g.data, func(h protoField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // Function{id=1, name=2}
			var id, name uint64
			err := eachField(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

func (p *cpuProfile) str(i uint64) string {
	if i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

// frames returns a sample's function names, leaf first.
func (p *cpuProfile) frames(s cpuSample) []string {
	var out []string
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			out = append(out, p.str(p.functions[fn]))
		}
	}
	return out
}

// addCPUProfile adds a gzipped CPU profile's sampled seconds to selfTime,
// bucketed by bucketOf.
func addCPUProfile(selfTime map[string]float64, gz []byte) error {
	p, err := parseCPUProfile(gz)
	if err != nil {
		return err
	}
	ns := -1
	for i, u := range p.units {
		if p.str(u) == "nanoseconds" {
			ns = i
		}
	}
	if ns < 0 {
		return errors.New("cpu profile: no nanoseconds sample type")
	}
	for _, s := range p.samples {
		if ns < len(s.values) {
			selfTime[bucketOf(p.frames(s))] += float64(s.values[ns]) / 1e9
		}
	}
	return nil
}

// memProfile returns the runtime's allocation profile records.
func memProfile() []runtime.MemProfileRecord {
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			return recs[:n]
		}
	}
}

// allocSite keys an allocation-profile record: the runtime keeps one
// record per stack and object size.
type allocSite struct {
	stack [32]uintptr
	size  int64
}

func siteOf(r runtime.MemProfileRecord) allocSite {
	var size int64
	if r.AllocObjects > 0 {
		size = r.AllocBytes / r.AllocObjects
	}
	return allocSite{r.Stack0, size}
}

// bucketAllocs returns the bytes allocated per bucket between two
// allocation-profile snapshots taken at sampling rate rate, scaled the way
// pprof scales sampled heap profiles so the estimate is unbiased.
func bucketAllocs(before, after []runtime.MemProfileRecord, rate int) map[string]float64 {
	prior := make(map[allocSite]runtime.MemProfileRecord, len(before))
	for _, r := range before {
		prior[siteOf(r)] = r
	}
	out := make(map[string]float64)
	for _, r := range after {
		site := siteOf(r)
		p := prior[site]
		objects := r.AllocObjects - p.AllocObjects
		if objects <= 0 {
			continue
		}
		scale := 1 / (1 - math.Exp(-float64(site.size)/float64(rate)))
		out[bucketOf(stackFrames(r.Stack()))] += float64(objects*site.size) * scale
	}
	return out
}

// stackFrames symbolizes a stack of program counters, leaf first, with
// inlined calls expanded.
func stackFrames(pcs []uintptr) []string {
	var out []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		out = append(out, f.Function)
		if !more {
			return out
		}
	}
}
