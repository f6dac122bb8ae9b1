package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file decodes the host CPU profile runtime/pprof writes (gzipped
// protobuf, profile.proto) just far enough to charge each sample to a
// package: the standard library has no profile reader, and the benchmark
// may use nothing else.

// hostProfile accumulates CPU-profile samples across traced passes.
type hostProfile struct {
	total int64
	pkg   map[string]int64 // self samples per charged package
	leaf  map[string]int64 // self samples per innermost function
	owner map[string]int64 // samples per innermost repro/internal function
}

func newHostProfile() *hostProfile {
	return &hostProfile{pkg: map[string]int64{}, leaf: map[string]int64{}, owner: map[string]int64{}}
}

// internalPrefix marks the simulator's own packages.
const internalPrefix = "repro/internal/"

// add decodes one profile and charges every sample to the package of its
// innermost repro/internal frame; a sample with none is "runtime_gc" when
// it is garbage-collector work and "other" (the benchmark, the Go
// scheduler, system calls) otherwise.  Packages are keyed by their first
// path element below repro/internal (vfs/wire counts as vfs).
func (hp *hostProfile) add(data []byte) error {
	stacks, err := decodeProfile(data)
	if err != nil {
		return err
	}
	for _, s := range stacks {
		hp.total += s.count
		if len(s.funcs) > 0 {
			hp.leaf[s.funcs[0]] += s.count
		}
		pkg := "other"
		for _, fn := range s.funcs {
			if strings.HasPrefix(fn, internalPrefix) {
				pkg = fn[len(internalPrefix):]
				if i := strings.IndexAny(pkg, "./"); i >= 0 {
					pkg = pkg[:i]
				}
				hp.owner[fn] += s.count
				break
			}
			if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
				strings.HasPrefix(fn, "runtime.bgscavenge") || fn == "runtime.markroot" {
				pkg = "runtime_gc"
			}
		}
		hp.pkg[pkg] += s.count
	}
	return nil
}

// share is n as a fraction of all samples.
func (hp *hostProfile) share(n int64) float64 {
	if hp.total == 0 {
		return 0
	}
	return float64(n) / float64(hp.total)
}

// frame is one row of the top-frames report.
type frame struct {
	Func  string  `json:"func"`
	Share float64 `json:"share"`
}

// top returns the k largest entries of m as shares of all samples.
func (hp *hostProfile) top(m map[string]int64, k int) []frame {
	var out []frame
	for fn, n := range m {
		out = append(out, frame{fn, hp.share(n)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Func < out[j].Func
	})
	return out[:min(k, len(out))]
}

// stackSample is one decoded sample: function names innermost first
// (inlined frames expanded) and its sample count.
type stackSample struct {
	funcs []string
	count int64
}

// decodeProfile reads the samples of a gzipped profile.proto message.
func decodeProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		fnName  = map[uint64]uint64{}   // function id -> string index
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
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
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
