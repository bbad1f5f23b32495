package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"path"
	goruntime "runtime"
	"strings"
	"time"
)

// frame is one stack frame: the function's full name (as in
// "chc/internal/store.(*Client).call") and its source file.
type frame struct{ fn, file string }

// layerOf attributes one profile sample to a layer. Its stack is ordered
// innermost frame first, and the innermost frame in chc code decides: a
// chc/internal package is its own layer ("runtime", "livenet", "nf" for
// every NF package, ...), the store package splits by file into
// "store.client" (client.go) and "store.server" (everything else: server,
// engine, locks, checkpoints), and the benchmark's own code is "bench"
// (package main, or chc/chainbench in its test binary).
// So malloc, channel and timer work done on behalf of store code counts as
// store. A stack with no chc frame is Go runtime work: "go.gc" (GC
// workers, sweeping, scavenging, assists), "go.sched" (scheduler, idle
// threads, sysmon) or "go.other".
func layerOf(stack []frame) string {
	for _, f := range stack {
		if l, ok := chcLayer(f); ok {
			return l
		}
	}
	for _, f := range stack {
		for _, p := range goGCFuncs {
			if strings.HasPrefix(f.fn, p) {
				return "go.gc"
			}
		}
	}
	for _, f := range stack {
		for _, p := range goSchedFuncs {
			if f.fn == p {
				return "go.sched"
			}
		}
	}
	return "go.other"
}

// chcLayers maps the first path element under chc/internal to a layer.
var chcLayers = map[string]string{
	"runtime": "runtime", "livenet": "livenet", "nf": "nf", "packet": "packet", "transport": "transport",
}

func chcLayer(f frame) (string, bool) {
	if strings.HasPrefix(f.fn, "main.") || strings.HasPrefix(f.fn, "chc/chainbench.") {
		return "bench", true
	}
	rest, ok := strings.CutPrefix(f.fn, "chc/internal/")
	if !ok {
		return "", false
	}
	top, _, _ := strings.Cut(rest, "/")
	top, _, _ = strings.Cut(top, ".")
	if top == "store" {
		if path.Base(f.file) == "client.go" {
			return "store.client", true
		}
		return "store.server", true
	}
	if l, ok := chcLayers[top]; ok {
		return l, true
	}
	return "chc.other", true
}

// goGCFuncs are function-name prefixes of the Go runtime's GC work.
var goGCFuncs = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.GC",
}

// goSchedFuncs are Go runtime functions whose presence marks scheduler
// work: finding goroutines to run, parking, idling, sysmon.
var goSchedFuncs = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
	"runtime.sysmon", "runtime.goexit0", "runtime.stopm", "runtime.gosched_m",
}

// cpuByLayer decodes a CPU profile as runtime/pprof writes it (gzipped
// profile.proto) and sums its CPU time per layer.
func cpuByLayer(data []byte) (map[string]time.Duration, error) {
	p, err := decodeProfile(data)
	if err != nil {
		return nil, err
	}
	vi := -1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	out := map[string]time.Duration{}
	for _, s := range p.samples {
		if vi < len(s.values) {
			out[layerOf(s.stack)] += time.Duration(s.values[vi])
		}
	}
	return out, nil
}

// memCount is one allocation site's cumulative sampled allocations.
type memCount struct{ objects, bytes int64 }

// memSnapshot reads the allocation profile, keyed by stack.
func memSnapshot() map[[32]uintptr]memCount {
	var recs []goruntime.MemProfileRecord
	n, _ := goruntime.MemProfile(nil, true)
	for {
		recs = make([]goruntime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = goruntime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[[32]uintptr]memCount, n)
	for _, r := range recs[:n] {
		c := out[r.Stack0]
		c.objects += r.AllocObjects
		c.bytes += r.AllocBytes
		out[r.Stack0] = c
	}
	return out
}

// allocsByLayer is the number of allocations per layer between two
// profile snapshots, scaled up from the sample as pprof does for a
// profile taken at the given MemProfileRate.
func allocsByLayer(before, after map[[32]uintptr]memCount, rate int) map[string]float64 {
	out := map[string]float64{}
	for stk, a := range after {
		b := before[stk]
		objs, size := a.objects-b.objects, a.bytes-b.bytes
		if objs <= 0 || size <= 0 {
			continue
		}
		out[layerOf(symbolize(stk))] += scaleAllocs(objs, size, rate)
	}
	return out
}

// scaleAllocs estimates the allocations behind a sampled count: a sample
// is taken about once per rate bytes, so an object of average size s was
// sampled with probability 1-exp(-s/rate).
func scaleAllocs(objects, bytes int64, rate int) float64 {
	if rate <= 1 {
		return float64(objects)
	}
	avg := float64(bytes) / float64(objects)
	return float64(objects) / (1 - math.Exp(-avg/float64(rate)))
}

func symbolize(stk [32]uintptr) []frame {
	n := 0
	for n < len(stk) && stk[n] != 0 {
		n++
	}
	var out []frame
	frames := goruntime.CallersFrames(stk[:n])
	for {
		f, more := frames.Next()
		out = append(out, frame{fn: f.Function, file: f.File})
		if !more {
			return out
		}
	}
}

// profile is the part of a decoded profile.proto that layerOf needs.
type profile struct {
	sampleTypes []string
	samples     []profSample
}

type profSample struct {
	stack  []frame // innermost first
	values []int64
}

// decodeProfile reads a gzipped profile.proto (github.com/google/pprof
// proto/profile.proto): sample types, samples, locations with their
// inlined lines, functions and the string table.
func decodeProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type function struct{ name, file int64 }
	type sample struct{ locs, values []uint64 }
	var (
		strs      []string
		typeIdx   []int64
		samples   []sample
		locations = map[uint64][]uint64{} // location id -> function ids, innermost first
		functions = map[uint64]function{}
	)
	err = walkProto(raw, func(num int, v uint64, msg []byte) error {
		switch num {
		case 1: // sample_type
			return walkProto(msg, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := walkProto(msg, func(n int, v uint64, sub []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, sub)
				case 2:
					s.values = appendVarints(s.values, v, sub)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkProto(msg, func(n int, v uint64, sub []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return walkProto(sub, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var f function
			err := walkProto(msg, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			functions[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	for _, s := range samples {
		ps := profSample{}
		for _, v := range s.values {
			ps.values = append(ps.values, int64(v))
		}
		for _, l := range s.locs {
			for _, fid := range locations[l] {
				f := functions[fid]
				ps.stack = append(ps.stack, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// walkProto calls fn for each field of a protobuf message: v carries a
// varint or fixed-width value, msg a length-delimited one.
func walkProto(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed (msg holds the
// varints) or not (v is one element).
func appendVarints(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}
