package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// This file folds a runtime/pprof CPU profile into per-module shares. It
// decodes the few protobuf fields it needs (samples, locations, functions,
// strings) with the standard library only.

// modules are the layers a sample can be charged to, in report order.
var modules = []string{"sim", "simnet", "pcie", "rdma", "nicrt", "hostrt",
	"core", "baseline", "nicindex", "robinhood", "chained", "btree", "wire",
	"workload", "openloop", "metrics", "telemetry", "check", "gc", "malloc",
	"other"}

// moduleOf maps a package path of this repository to its module.
func moduleOf(pkg string) (string, bool) {
	p, ok := strings.CutPrefix(pkg, "xenic/internal/")
	if !ok {
		return "", false
	}
	switch {
	case strings.HasPrefix(p, "store/"):
		p = strings.TrimPrefix(p, "store/")
	case strings.HasPrefix(p, "workload"):
		p = "workload"
	case p == "load":
		p = "openloop"
	}
	for _, m := range modules {
		if m == p {
			return m, true
		}
	}
	return "", false
}

// pkgOf extracts the package path from a Go symbol name such as
// "xenic/internal/store/chained.(*Table).Lookup".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true,
	"runtime.bgsweep": true, "runtime.bgscavenge": true,
	"runtime.gcStart": true, "runtime.gcMarkDone": true,
	"runtime.gcMarkTermination": true, "runtime.markroot": true,
}

// classify charges one stack (leaf first) to a module: GC work anywhere on
// the stack is gc, allocation is malloc, otherwise the innermost frame that
// belongs to a module of this repository names it.
func classify(stack []string) string {
	for _, f := range stack {
		if gcFrames[f] {
			return "gc"
		}
	}
	for _, f := range stack {
		if f == "runtime.mallocgc" {
			return "malloc"
		}
	}
	for _, f := range stack {
		if m, ok := moduleOf(pkgOf(f)); ok {
			return m
		}
	}
	return "other"
}

// foldProfile returns each module's share of the profile's CPU time.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		val  int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function -> string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					vals := appendPacked(nil, v, b)
					if len(vals) > 0 {
						s.val = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
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
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fn uint64) string {
		if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	byMod := map[string]int64{}
	var total int64
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, fn := range locFns[l] {
				stack = append(stack, name(fn))
			}
		}
		byMod[classify(stack)] += s.val
		total += s.val
	}
	out := map[string]float64{}
	for _, m := range modules {
		out[m] = ratio(float64(byMod[m]), float64(total))
	}
	return out, nil
}

// appendPacked appends a repeated varint field that arrives either packed
// (b set) or as a single varint v.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks a protobuf message, calling fn with each field number and
// either its varint value or its length-delimited bytes (nil for varints).
func eachField(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		buf = buf[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := uvarint(buf)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			buf = buf[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: wire type %d", typ)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
