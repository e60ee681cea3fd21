package main

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mallocgc":                                                    "runtime",
		"shrimp/internal/sim.(*Engine).schedule":                              "shrimp/internal/sim",
		"shrimp/internal/apps/ocean.validate":                                 "shrimp/internal/apps/ocean",
		"shrimp/internal/sim.(*Queue[go.shape.*uint8]).Pop":                   "shrimp/internal/sim",
		"shrimp/internal/sim.(*Queue[shrimp/internal/nic.Packet]).Push.func1": "shrimp/internal/sim",
		"internal/runtime/atomic.(*Uint32).Load":                              "internal/runtime/atomic",
		"net/http.(*conn).serve":                                              "net/http",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "shrimp/internal/memory.getArena"}, "runtime.alloc"},
		{[]string{"runtime.memmove", "shrimp/internal/memory.(*AddressSpace).DMAWrite"}, "runtime.alloc"},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup"}, "runtime.sched"},
		{[]string{"runtime.mapaccess2", "shrimp/internal/nic.(*NIC).rx"}, "runtime.other"},
		{[]string{"shrimp/internal/sim.(*Engine).schedule"}, "sim"},
		{[]string{"shrimp/internal/apps/radix.(*VMMCRun).Finish.func1"}, "apps"},
		{[]string{"shrimp/internal/stats.(*Counters).Add"}, "other"},
		{[]string{"crypto/sha256.block"}, "other"},
	} {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestProfileNs attributes a real CPU profile of this process.
func TestProfileNs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1<<16)
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		sha256.Sum256(data)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ns, err := profileNs(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range ns {
		sum += v
	}
	if sum <= 0 || ns["other"] < sum/2 {
		t.Fatalf("profile buckets %v: want most CPU in crypto/sha256 (other)", ns)
	}
}

func TestTracesNs(t *testing.T) {
	out := `File: perfbench
Type: cpu
Duration: 2s, Total samples = 1.23s (61.50%)
-----------+-------------------------------------------------------
     1.20s   shrimp/internal/sim.(*Engine).heapPush (inline)
             shrimp/internal/sim.(*Engine).push
-----------+-------------------------------------------------------
      20ms   shrimp/internal/sim.(*Queue[go.shape.struct { F int }]).Pop
-----------+-------------------------------------------------------
      10ms   runtime.memclrNoHeapPointers
             runtime.mallocgc
-----------+-------------------------------------------------------
`
	got, err := tracesNs([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 1.22e9, "runtime.alloc": 1e7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tracesNs = %v, want %v", got, want)
	}
	if _, err := tracesNs([]byte("File: perfbench\n")); err == nil {
		t.Fatal("no stacks: want an error")
	}
}

// TestPlan checks that every pass simulates each what-if cell exactly
// once, re-submits only earlier grids, and depends on the seed alone.
func TestPlan(t *testing.T) {
	p := plan(7, 2)
	if !reflect.DeepEqual(p, plan(7, 2)) {
		t.Fatal("same seed, different plans")
	}
	if reflect.DeepEqual(p, plan(8, 2)) {
		t.Fatal("different seeds, same plan")
	}
	seen := map[string]int{}
	for _, reqs := range p {
		sent := map[string]bool{}
		for _, r := range reqs {
			switch r.kind {
			case "grid":
				for _, c := range r.cells {
					seen[cellKey(c)]++
				}
				sent[cellKey(r.cells[0])] = true
			case "resubmit":
				if !sent[cellKey(r.cells[0])] {
					t.Errorf("re-submission before its grid: %v", r.cells[0])
				}
			}
		}
	}
	if len(seen) != 2*72 {
		t.Errorf("plan simulates %d distinct cells, want 144", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("cell %s simulated %d times", k, n)
		}
	}
}
