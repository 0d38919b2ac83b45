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

// cpuPackages are the northstar/internal packages a CPU sample can be
// charged to, each reported as cpu.<pkg>.
var cpuPackages = []string{
	"alloc", "check", "cluster", "core", "experiments", "fault", "machine", "mc", "mgmt",
	"msg", "network", "node", "obs", "sched", "serve", "sim", "stats", "storage", "tech",
	"topology", "workload",
}

// cpuBuckets are the shares for samples with no northstar/internal frame:
// garbage collection, the rest of the runtime, the benchmark's own code
// (its HTTP client and output checks included), and everything else in
// the standard library. A frame in an internal package missing from
// cpuPackages is charged to "other".
var cpuBuckets = []string{"runtime.gc", "runtime.other", "bench", "std", "other"}

// gcFrames are the runtime functions that only garbage collection runs.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.gcMark",
	"runtime.gcStart", "runtime.gcSweep", "runtime.markroot", "runtime.scanobject",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
}

// chargeStack names the bucket a sample's stack (leaf first) is charged
// to: the innermost northstar/internal/<pkg> frame, else one of
// cpuBuckets.
func chargeStack(stack []string) string {
	const internal = "northstar/internal/"
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internal); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			if slices.Contains(cpuPackages, pkg) {
				return pkg
			}
			return "other"
		}
	}
	runtimeOnly := true
	for _, fn := range stack {
		for _, gc := range gcFrames {
			if strings.HasPrefix(fn, gc) {
				return "runtime.gc"
			}
		}
		if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "runtime/") {
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return "runtime.other"
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	return "std"
}

// foldProfile charges every sample of a gzipped pprof CPU profile to
// its bucket and returns each bucket's share of CPU time in percent,
// with every bucket of cpuPackages and cpuBuckets present.
func foldProfile(gz []byte) (map[string]float64, error) {
	stacks, weights, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64)
	for _, b := range cpuPackages {
		shares[b] = 0
	}
	for _, b := range cpuBuckets {
		shares[b] = 0
	}
	var total float64
	for i, st := range stacks {
		shares[chargeStack(st)] += float64(weights[i])
		total += float64(weights[i])
	}
	if total > 0 {
		for b := range shares {
			shares[b] *= 100 / total
		}
	}
	return shares, nil
}

// parseProfile decodes the parts of a gzipped profile.proto that
// folding needs: each sample's stack as function names, leaf first
// (inlined frames innermost first), and its weight — the last sample
// value, CPU nanoseconds in a CPU profile.
func parseProfile(gz []byte) (stacks [][]string, weights []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []sample
		locFuncs  = make(map[uint64][]uint64) // location id -> function ids, innermost first
		funcNames = make(map[uint64]uint64)   // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2: // Sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					s.values = appendPacked(s.values, wire, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case num == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && wire == 2: // Line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
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
		case num == 5 && wire == 2: // Function
			var id, name uint64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case num == 6 && wire == 2: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var st []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i < uint64(len(strs)) {
					st = append(st, strs[i])
				}
			}
		}
		stacks = append(stacks, st)
		weights = append(weights, int64(s.values[len(s.values)-1]))
	}
	return stacks, weights, nil
}

// appendPacked appends a repeated varint field that may arrive packed
// (wire type 2) or one value at a time (wire type 0).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the fields of one protobuf message, handing fn the
// field number, wire type, and the varint value or length-delimited
// bytes. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
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
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
