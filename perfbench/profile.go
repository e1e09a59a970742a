package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// cpuModules are the layers a CPU sample can be charged to: the innermost
// ringbft/internal/<module> frame of its stack. A stack with no such
// frame is "bench" when it runs benchmark code (package main, named
// ringbft/perfbench in test binaries) and "runtime" otherwise (GC,
// scheduler, timers); a ringbft/internal module outside this list is
// "other".
var cpuModules = slices.Concat(internalModules, []string{"runtime", "other", "bench"})

var internalModules = []string{
	"crypto", "pbft", "ringbft", "types", "tcpnet", "simnet", "wal",
	"store", "sched", "ledger",
}

const internalPrefix = "ringbft/internal/"

// moduleOf classifies one stack, given innermost first.
func moduleOf(stack []string) string {
	bench := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			mod := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				mod = rest[:i]
			}
			if slices.Contains(internalModules, mod) {
				return mod
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "ringbft/perfbench.") {
			bench = true
		}
	}
	if bench {
		return "bench"
	}
	return "runtime"
}

// cpuByModule parses a gzipped pprof CPU profile and sums sample CPU time
// (nanoseconds) per module.
func cpuByModule(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	valueIdx := len(p.sampleTypes) - 1 // CPU profiles: [samples/count, cpu/nanoseconds]
	for i, st := range p.sampleTypes {
		if p.str(st) == "cpu" {
			valueIdx = i
		}
	}
	for _, s := range p.samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			continue
		}
		var stack []string
		for _, lid := range s.locs {
			for _, fid := range p.locFuncs[lid] {
				stack = append(stack, p.str(p.funcNames[fid]))
			}
		}
		out[moduleOf(stack)] += s.values[valueIdx]
	}
	return out, nil
}

// The subset of profile.proto the attribution needs.
type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofData struct {
	sampleTypes []int64 // string index of each sample type's type
	samples     []pprofSample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames   map[uint64]int64    // function id -> string index of its name
	strings     []string
}

func (p *pprofData) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

var errProto = errors.New("profile: malformed protobuf")

// pbField is one decoded protobuf field.
type pbField struct {
	num  int
	wire int
	v    uint64 // varint
	b    []byte // length-delimited
}

func pbFields(b []byte, f func(pbField) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		fld := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch fld.wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errProto
			}
			fld.v, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			fld.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := f(fld); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// varints decodes a repeated varint field, packed or not.
func varints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func parseProfile(raw []byte) (*pprofData, error) {
	p := &pprofData{locFuncs: make(map[uint64][]uint64), funcNames: make(map[uint64]int64)}
	err := pbFields(raw, func(f pbField) error {
		switch f.num {
		case 1: // sample_type
			return pbFields(f.b, func(g pbField) error {
				if g.num == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(g.v))
				}
				return nil
			})
		case 2: // sample
			var s pprofSample
			err := pbFields(f.b, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = varints(g, s.locs)
				case 2:
					var vs []uint64
					vs, err = varints(g, nil)
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					return pbFields(g.b, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
