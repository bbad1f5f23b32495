package main

import (
	"bytes"
	goruntime "runtime"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	const (
		client = "/src/chc/internal/store/client.go"
		engine = "/src/chc/internal/store/engine.go"
	)
	cases := []struct {
		name  string
		stack []frame
		want  string
	}{
		{"malloc in the store client", []frame{
			{"runtime.mallocgc", "malloc.go"},
			{"chc/internal/store.(*Client).async", client},
			{"chc/internal/nf.(*Ctx).Incr", "/src/chc/internal/nf/handles.go"},
		}, "store.client"},
		{"store engine", []frame{
			{"runtime.mapassign", "map.go"},
			{"chc/internal/store.(*Engine).Apply", engine},
			{"chc/internal/store.(*Server).run", "/src/chc/internal/store/server.go"},
		}, "store.server"},
		{"innermost chc frame wins", []frame{
			{"runtime.chansend1", "chan.go"},
			{"chc/internal/livenet.(*Net).Send", "/src/chc/internal/livenet/livenet.go"},
			{"chc/internal/store.(*Client).sendAsync", client},
		}, "livenet"},
		{"NF subpackage", []frame{
			{"chc/internal/nf/nat.(*NAT).Process", "/src/chc/internal/nf/nat/nat.go"},
			{"chc/internal/runtime.(*Instance).process", "/src/chc/internal/runtime/instance.go"},
		}, "nf"},
		{"runtime closure", []frame{
			{"chc/internal/runtime.(*Chain).runTraceLive.func1", "/src/chc/internal/runtime/driver.go"},
		}, "runtime"},
		{"GC assist charged to the allocating layer", []frame{
			{"runtime.gcAssistAlloc", "mgcmark.go"},
			{"runtime.mallocgc", "malloc.go"},
			{"chc/internal/packet.(*Arena).Get", "/src/chc/internal/packet/arena.go"},
		}, "packet"},
		{"other chc package", []frame{{"chc/internal/vtime.(*Sim).Now", "/src/chc/internal/vtime/vtime.go"}}, "chc.other"},
		{"benchmark calling into livenet", []frame{
			{"chc/internal/livenet.(*Endpoint).Len", "/src/chc/internal/livenet/livenet.go"},
			{"main.(*tracer).sampleQueues", "/src/chainbench/traced.go"},
		}, "livenet"},
		{"benchmark frame innermost", []frame{
			{"time.Now", "time.go"},
			{"main.timedNF.Process", "/src/chainbench/traced.go"},
			{"chc/internal/runtime.(*Instance).process", "/src/chc/internal/runtime/instance.go"},
		}, "bench"},
		{"GC worker", []frame{
			{"runtime.scanobject", "mgcmark.go"},
			{"runtime.gcDrain", "mgcmark.go"},
			{"runtime.gcBgMarkWorker.func2", "mgc.go"},
			{"runtime.systemstack", "asm_amd64.s"},
		}, "go.gc"},
		{"sweeper", []frame{{"runtime.sweepone", "mgcsweep.go"}, {"runtime.bgsweep", "mgcsweep.go"}}, "go.gc"},
		{"idle scheduler", []frame{
			{"runtime.futex", "os_linux.go"},
			{"runtime.notesleep", "lock_futex.go"},
			{"runtime.stopm", "proc.go"},
			{"runtime.findRunnable", "proc.go"},
			{"runtime.schedule", "proc.go"},
		}, "go.sched"},
		{"sysmon", []frame{{"runtime.usleep", "sys_linux_amd64.s"}, {"runtime.sysmon", "proc.go"}}, "go.sched"},
		{"unattributed runtime", []frame{{"runtime.memmove", "memmove_amd64.s"}, {"runtime.goexit", "asm_amd64.s"}}, "go.other"},
		{"empty stack", nil, "go.other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestScaleAllocs(t *testing.T) {
	if got := scaleAllocs(10, 640, 1); got != 10 {
		t.Errorf("rate 1: got %v, want the raw count", got)
	}
	// Objects far larger than the rate are always sampled.
	if got := scaleAllocs(10, 10<<20, 16<<10); got < 9.99 || got > 10.01 {
		t.Errorf("large objects: got %v, want ~10", got)
	}
	// A 64 B object is sampled about once per 16 KiB / 64 B = 256 objects.
	if got := scaleAllocs(10, 640, 16<<10); got < 2500 || got > 2600 {
		t.Errorf("small objects: got %v, want ~2565", got)
	}
}

var sink []*[64]byte

//go:noinline
func allocateForTest(n int) {
	for i := 0; i < n; i++ {
		sink = append(sink, new([64]byte))
	}
}

func TestAllocsByLayer(t *testing.T) {
	old := goruntime.MemProfileRate
	goruntime.MemProfileRate = 1
	defer func() { goruntime.MemProfileRate = old }()
	goruntime.GC()
	goruntime.GC()
	before := memSnapshot()
	allocateForTest(5000)
	goruntime.GC()
	goruntime.GC()
	got := allocsByLayer(before, memSnapshot(), 1)
	// 5000 objects plus the slice's growth.
	if got["bench"] < 5000 || got["bench"] > 5100 {
		t.Errorf("bench allocations = %v, want 5000..5100 (all layers: %v)", got["bench"], got)
	}
	sink = nil
}

//go:noinline
func spinForTest(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestCPUByLayer(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinForTest(300 * time.Millisecond)
	pprof.StopCPUProfile()
	got, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	for _, d := range got {
		total += d
	}
	if total == 0 {
		t.Skip("no CPU samples taken")
	}
	if got["bench"] < total/2 {
		t.Errorf("bench CPU %v of %v total (%v), want the spin loop to dominate", got["bench"], total, got)
	}
}
