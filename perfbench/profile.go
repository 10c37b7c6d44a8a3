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

// cpuModules are the layers the CPU profile is folded into: the charm
// packages by name, "runtime" for the Go runtime (GC, scheduler,
// allocator), and "other" for everything else (the benchmark, the charm
// facade, the rest of the standard library).
var cpuModules = []string{
	"sim", "cache", "topology", "fabric", "mem", "pmu", "core", "task", "place",
	"admit", "tenant", "power", "obs", "fault", "workloads", "runtime", "other",
}

// moduleOf maps a profiled function name to its module.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "charm/internal/"):
		mod, _, _ := strings.Cut(strings.TrimPrefix(pkg, "charm/internal/"), "/")
		for _, m := range cpuModules {
			if m == mod {
				return m
			}
		}
	}
	return "other"
}

// foldProfile decodes a gzipped pprof CPU profile and returns each
// module's share of the samples, attributing every sample to the package
// of its leaf frame (the innermost inlined function).
func foldProfile(data []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs     []string
		funcName = map[uint64]uint64{} // function id -> string index
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		samples  []struct{ loc, n uint64 }
	)
	err = pbFields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var locs, vals []uint64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = pbRepeated(locs, v, b)
				case 2:
					vals = pbRepeated(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, struct{ loc, n uint64 }{locs[0], vals[0]})
			}
		case 4: // Location
			var id, fn uint64
			seen := false
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !seen: // first Line is the leaf
					seen = true
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			if err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := map[string]float64{}
	for _, m := range cpuModules {
		shares[m] = 0
	}
	var total float64
	for _, s := range samples {
		mod := "other"
		if fn, ok := locFunc[s.loc]; ok {
			if si := funcName[fn]; si < uint64(len(strs)) {
				if strings.HasPrefix(strs[si], "main.calibrate") {
					continue // the host-speed kernel is not simulator time
				}
				mod = moduleOf(strs[si])
			}
		}
		shares[mod] += float64(s.n)
		total += float64(s.n)
	}
	if total > 0 {
		for m := range shares {
			shares[m] /= total
		}
	}
	return shares, nil
}

var errProto = errors.New("malformed protobuf")

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated appends a repeated integer field, packed (data) or not (v).
func pbRepeated(xs []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(xs, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return xs
		}
		xs = append(xs, x)
		data = data[n:]
	}
	return xs
}
