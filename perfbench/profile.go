package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// programLayers are the packages under internal/ the benchmark breaks out.
var programLayers = []string{
	"sim", "kern", "wire", "netdev", "netio", "tcp", "timerwheel", "stacks",
	"registry", "core", "pkt", "checksum",
}

// layerNames are the layers a CPU sample can be charged to: those
// packages, the Go runtime, every other program package, and the
// benchmark itself.
var layerNames = append(append([]string(nil), programLayers...), "go", "other", "bench")

// layerOf names the layer of a function symbol, or "" when the symbol
// belongs to neither the program nor the benchmark.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments hold package paths too
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "main":
		return "bench"
	case pkg == "ulp":
		return "other"
	case strings.HasPrefix(pkg, "ulp/internal/"):
		name := strings.TrimPrefix(pkg, "ulp/internal/")
		for _, l := range programLayers {
			if name == l {
				return l
			}
		}
		return "other"
	}
	return ""
}

// layerSamples charges each sample of a gzipped pprof CPU profile to the
// layer of its innermost program or benchmark frame; runtime frames count
// to the layer that called them, and samples with no such frame to "go".
func layerSamples(gz []byte) (map[string]int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}    // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		samples []pbSample
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			s, err := decodeSample(b)
			samples = append(samples, s)
			return err
		case 4:
			id, fns, err := decodeLocation(b)
			locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int{}
	for _, s := range samples {
		layer := "go"
	frames:
		for _, loc := range s.locs {
			for _, fid := range locs[loc] {
				idx := funcs[fid]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("function %d names string %d of %d", fid, idx, len(strs))
				}
				if l := layerOf(strs[idx]); l != "" {
					layer = l
					break frames
				}
			}
		}
		out[layer] += int(s.count)
	}
	return out, nil
}

type pbSample struct {
	locs  []uint64 // leaf first
	count int64
}

func decodeSample(b []byte) (pbSample, error) {
	var s pbSample
	first := true
	err := pbFields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1:
			return pbVarints(v, data, func(x uint64) { s.locs = append(s.locs, x) })
		case 2:
			return pbVarints(v, data, func(x uint64) {
				if first { // values[0] is the sample count
					s.count, first = int64(x), false
				}
			})
		}
		return nil
	})
	return s, err
}

func decodeLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	err := pbFields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1:
			id = v
		case 4: // Line; several lines mean inlined calls, innermost first
			return pbFields(data, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					fns = append(fns, v)
				}
				return nil
			})
		}
		return nil
	})
	return id, fns, err
}

var errTruncated = errors.New("truncated protobuf")

// pbFields walks a protobuf message, calling fn with each field's number
// and either its varint value (data nil) or its length-delimited bytes.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbVarints handles a repeated varint field written either packed (data
// set) or as one value.
func pbVarints(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			return errTruncated
		}
		fn(x)
		data = data[n:]
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
