package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// layerOf names the replay layer a function belongs to, from its
// fully-qualified name and source file. It returns "" for code outside the
// module (the Go runtime, the standard library, this benchmark).
func layerOf(fn, file string) string {
	switch {
	case strings.HasPrefix(fn, "tireplay/internal/trace."):
		return "ingest"
	case strings.HasPrefix(fn, "tireplay/internal/platform."),
		strings.HasPrefix(fn, "tireplay/internal/topo."):
		return "routing"
	case strings.HasPrefix(fn, "tireplay/internal/core."),
		strings.HasPrefix(fn, "tireplay/internal/mpi."),
		strings.HasPrefix(fn, "tireplay/internal/msgreplay."):
		return "lowering"
	case strings.HasPrefix(fn, "tireplay/internal/sim."):
		switch path.Base(file) {
		case "maxmin.go", "flowheap.go", "host.go":
			return "network"
		}
		return "scheduling"
	case strings.HasPrefix(fn, "tireplay"):
		return "other"
	}
	return ""
}

// layerCPU decodes a gzipped pprof CPU profile and sums each sample's CPU
// time into the layer of its innermost module frame, so allocation and GC
// assist work is charged to the layer that caused it. Samples with no module
// frame (background GC, the scheduler) go to "runtime".
func layerCPU(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	// Only the fields needed to name a sample's frames are decoded:
	// Profile.sample (2), .location (4), .function (5), .string_table (6).
	var (
		samples   [][]byte
		strs      []string
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64][2]int64{} // function id -> (name, filename) string indexes
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			samples = append(samples, b)
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name, file int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				case 4:
					file = int64(v)
				}
				return nil
			})
			funcNames[id] = [2]int64{name, file}
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}

	out := map[string]float64{}
	for _, s := range samples {
		var locs []uint64
		var values []int64
		err := fields(s, func(num int, v uint64, b []byte) error {
			switch {
			case num == 1 && b == nil:
				locs = append(locs, v)
			case num == 1:
				return packed(b, func(v uint64) { locs = append(locs, v) })
			case num == 2 && b == nil:
				values = append(values, int64(v))
			case num == 2:
				return packed(b, func(v uint64) { values = append(values, int64(v)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(values) == 0 {
			continue
		}
		layer := "runtime"
	frames:
		for _, loc := range locs {
			for _, fid := range locFuncs[loc] {
				f := funcNames[fid]
				if l := layerOf(str(f[0]), str(f[1])); l != "" {
					layer = l
					break frames
				}
			}
		}
		// The last sample value is CPU time in nanoseconds.
		out[layer] += float64(values[len(values)-1])
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// fields walks the protobuf message b, calling fn with each field number
// and either its varint value (b == nil) or its length-delimited bytes.
// Fixed-width fields are skipped; the profile fields read here use none.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			body := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, body); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// packed decodes a packed repeated varint field.
func packed(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		fn(v)
	}
	return nil
}
