package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// cpuSample is what the benchmark reads from a runtime/pprof CPU profile
// sample: its CPU nanoseconds and its call stack as function names, leaf
// first. The standard library writes profiles but ships no reader, so
// parseProfile decodes the few protobuf fields of profile.proto it needs.
type cpuSample struct {
	ns    int64
	stack []string
}

// profile.proto field numbers.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2
	locationID     = 1
	locationLine   = 4
	lineFunction   = 1
	functionID     = 1
	functionName   = 2
)

func parseProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	var (
		strs      []string
		funcNames = map[uint64]int64{}    // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf first
		raw       []struct {
			locs   []uint64
			values []uint64
		}
	)
	err = walkProto(data, func(field int, v uint64, msg []byte) error {
		switch field {
		case profStrings:
			strs = append(strs, string(msg))
		case profFunction:
			var id uint64
			var name int64
			err := walkProto(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case profLocation:
			var id uint64
			var funcs []uint64
			err := walkProto(msg, func(f int, v uint64, line []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return walkProto(line, func(f int, v uint64, _ []byte) error {
						if f == lineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case profSample:
			var s struct {
				locs   []uint64
				values []uint64
			}
			err := walkRepeated(msg, func(f int, v uint64) {
				switch f {
				case sampleLocation:
					s.locs = append(s.locs, v)
				case sampleValue:
					s.values = append(s.values, v)
				}
			})
			raw = append(raw, s)
			return err
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	var samples []cpuSample
	for _, s := range raw {
		if len(s.values) == 0 {
			continue
		}
		cs := cpuSample{ns: int64(s.values[len(s.values)-1])} // [samples/count, cpu/nanoseconds]
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcNames[f]; i >= 0 && int(i) < len(strs) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		samples = append(samples, cs)
	}
	return samples, nil
}

// walkProto calls f for each field of a protobuf message: varint fields
// with their value, length-delimited fields with their bytes.
func walkProto(data []byte, f func(field int, v uint64, msg []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			data = data[n:]
			if err := f(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad protobuf length")
			}
			msg := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := f(field, 0, msg); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errors.New("short protobuf fixed64")
			}
			data = data[8:]
		case 5:
			if len(data) < 4 {
				return errors.New("short protobuf fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
	}
	return nil
}

// walkRepeated walks a message whose repeated integer fields may be packed
// (length-delimited runs of varints) or not.
func walkRepeated(data []byte, f func(field int, v uint64)) error {
	return walkProto(data, func(field int, v uint64, msg []byte) error {
		if msg == nil {
			f(field, v)
			return nil
		}
		for len(msg) > 0 {
			x, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad packed varint")
			}
			f(field, x)
			msg = msg[n:]
		}
		return nil
	})
}

// layerOf maps a function name to the per-layer name its self time counts
// under: the repository package for the simulator's layers, "runtime.other"
// for the Go runtime and everything else.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexAny(pkg, "[("); i >= 0 {
		pkg = pkg[:i] // generic shapes and method receivers hold dots and slashes
	}
	if pkg == "" {
		return "runtime.other"
	}
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if l, ok := strings.CutPrefix(pkg, "dcl1sim/internal/"); ok && slices.Contains(profileLayers, l) {
		return l
	}
	return "runtime.other"
}

// profileLayers are the repository packages whose self time is reported as
// <layer>.cpu_share; all other code counts as runtime.other_cpu_share.
var profileLayers = []string{"core", "cache", "dcl1", "noc", "dram", "gpu", "mem", "sim", "metrics", "serve"}

// cpuShares turns the traced rounds' profiles into each layer's share of
// the CPU samples by self time, plus the share spent under system builds.
func cpuShares(profiles [][]cpuSample) map[string]float64 {
	self := map[string]float64{}
	var total, build float64
	for _, p := range profiles {
		for _, s := range p {
			if len(s.stack) == 0 {
				continue
			}
			ns := float64(s.ns)
			total += ns
			self[layerOf(s.stack[0])] += ns
			for _, fn := range s.stack {
				if fn == "dcl1sim/internal/gpu.NewSystem" || fn == "dcl1sim/internal/gpu.NewMachine" {
					build += ns
					break
				}
			}
		}
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for _, l := range profileLayers {
		out[l+".cpu_share"] = self[l] / total
	}
	out["runtime.other_cpu_share"] = self["runtime.other"] / total
	out["gpu.build_cpu_share"] = build / total
	return out
}
