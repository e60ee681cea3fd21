package mesh

import (
	"testing"

	"shrimp/internal/sim"
)

// TestRouteCacheMatchesPathOracle checks every (src,dst) pair: the
// cached route Send uses must be link-for-link identical to what the
// uncached path computation produces, and a second lookup must serve the
// identical cached slice rather than recomputing.
func TestRouteCacheMatchesPathOracle(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e)
	for src := 0; src < n.Nodes(); src++ {
		for dst := 0; dst < n.Nodes(); dst++ {
			if src == dst {
				continue
			}
			s, d := NodeID(src), NodeID(dst)
			want := n.path(s, d)
			got := n.route(s, d)
			if len(got) != len(want) {
				t.Fatalf("route(%d,%d): %d links, oracle has %d", src, dst, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("route(%d,%d): link %d differs from oracle", src, dst, i)
				}
			}
			again := n.route(s, d)
			if len(again) == 0 || &again[0] != &got[0] {
				t.Fatalf("route(%d,%d): second lookup did not serve the cached slice", src, dst)
			}
		}
	}
}

// TestSendAllocationFree asserts the pooled send-deliver-release cycle
// performs zero steady-state heap allocations.
func TestSendAllocationFree(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, DefaultConfig())
	for i := 0; i < n.Nodes(); i++ {
		n.Attach(NodeID(i), func(p *Packet) { n.Release(p) })
	}
	avg := testing.AllocsPerRun(100, func() {
		pkt := n.Acquire()
		pkt.Src, pkt.Dst, pkt.Size = 0, 13, 128
		n.Send(pkt)
		pkt = n.Acquire() // loopback path too
		pkt.Src, pkt.Dst, pkt.Size = 2, 2, 32
		n.Send(pkt)
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("mesh.Send allocates %.1f objects per packet cycle, want 0", avg)
	}
}
