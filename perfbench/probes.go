package main

import (
	"time"

	"shrimp/internal/apps/radix"
	"shrimp/internal/checkpoint"
	"shrimp/internal/harness"
	"shrimp/internal/machine"
	"shrimp/internal/memory"
	"shrimp/internal/mesh"
	"shrimp/internal/resultcache"
	"shrimp/internal/sim"
	"shrimp/internal/vmmc"
)

// The layer probes time each layer's public entry points directly, the
// per-layer counterpart of the packages' own micro-benchmarks (which
// cannot be called from outside their packages). Each probe repeats
// probeReps times and reports the median cost per operation and the
// median heap allocations per operation.
const probeReps = 7

// probe runs fn probeReps times; fn performs ops operations per call.
// It returns the median host time and allocations per operation, and
// records a span per repetition.
func probe(log *spanLog, name string, ops int, fn func()) (time.Duration, float64) {
	var per, allocs []float64
	for r := 0; r < probeReps; r++ {
		a0 := readMetrics(mAllocObjs)[0]
		t0 := time.Now()
		fn()
		t1 := time.Now()
		a1 := readMetrics(mAllocObjs)[0]
		log.add("probe", name, -1, t0, t1)
		per = append(per, float64(t1.Sub(t0))/float64(ops))
		allocs = append(allocs, (a1-a0)/float64(ops))
	}
	return time.Duration(median(per)), median(allocs)
}

// runProbes runs every probe and returns its metrics.
func runProbes(log *spanLog) map[string]metric {
	ms := map[string]metric{}
	add := func(name string, d time.Duration, unit string, allocs float64) {
		switch unit {
		case "ns":
			ms[name+"_ns"] = metric{float64(d.Nanoseconds()), unit}
		case "us":
			ms[name+"_us"] = metric{float64(d.Nanoseconds()) / 1e3, unit}
		case "ms":
			ms[name+"_ms"] = metric{float64(d.Nanoseconds()) / 1e6, unit}
		}
		ms[name+"_allocs"] = metric{allocs, "allocs/op"}
	}

	// sim: event dispatch, Engine.At then Run, with a calendar 64 events
	// deep as each fired event schedules its successor.
	const events, inFlight = 100_000, 64
	d, a := probe(log, "sim.event", events, func() {
		e := sim.NewEngine()
		fired := 0
		var fire func()
		fire = func() {
			if fired++; fired <= events-inFlight {
				e.At(e.Now()+sim.Time(1+fired%7), fire)
			}
		}
		for i := 0; i < inFlight; i++ {
			e.At(sim.Time(i), fire)
		}
		e.Run()
	})
	add("sim.event", d, "ns", a)

	// sim: proc switch, two spawned procs whose sleeps interleave, so
	// every wake hands the engine from one proc to the other.
	const switches = 20_000
	d, a = probe(log, "sim.proc_switch", switches, func() {
		e := sim.NewEngine()
		for k := 0; k < 2; k++ {
			e.Spawn("probe", func(p *sim.Proc) {
				for i := 0; i < switches/2; i++ {
					p.Sleep(2)
				}
			})
		}
		e.Run()
	})
	add("sim.proc_switch", d, "ns", a)

	// memory: map a page and write it for the first time.
	const pages = 2_000
	word := make([]byte, 8)
	d, a = probe(log, "memory.page_alloc", pages, func() {
		as := memory.NewAddressSpace()
		for i := 0; i < pages; i++ {
			as.DMAWrite(as.Alloc(1), word)
		}
		as.Release()
	})
	add("memory.page_alloc", d, "ns", a)

	// mesh: inject a packet and deliver it on the default 4x4 mesh.
	const packets = 50_000
	d, a = probe(log, "mesh.send", packets, func() {
		e := sim.NewEngine()
		net := mesh.New(e, mesh.DefaultConfig())
		n := net.Nodes()
		for id := 0; id < n; id++ {
			net.Attach(mesh.NodeID(id), net.Release)
		}
		for i := 0; i < packets; i++ {
			pkt := net.Acquire()
			pkt.Src, pkt.Dst, pkt.Size = mesh.NodeID(i%n), mesh.NodeID((i*7+3)%n), 64
			net.Send(pkt)
			if i%1024 == 1023 {
				e.Run()
			}
		}
		e.Run()
	})
	add("mesh.send", d, "ns", a)

	// checkpoint: Take on a machine warmed to radix-vmmc's phase
	// boundary, then Restore after the body ran, as a forked branch does.
	wl := harness.QuickWorkloads()
	var takes, restores []float64
	var takeAllocs []float64
	for r := 0; r < probeReps; r++ {
		m := machine.New(machine.DefaultConfig(16))
		sys := vmmc.NewSystem(m)
		run := radix.StartVMMC(sys, radix.AU, wl.Radix)
		a0 := readMetrics(mAllocObjs)[0]
		t0 := time.Now()
		ck, err := checkpoint.Take(m, sys, nil)
		t1 := time.Now()
		a1 := readMetrics(mAllocObjs)[0]
		if err != nil {
			panic(err) // the phase boundary is quiescent by construction
		}
		run.Finish()
		t2 := time.Now()
		if err := ck.Restore(); err != nil {
			panic(err)
		}
		t3 := time.Now()
		ck.Detach()
		m.Close()
		log.add("probe", "checkpoint.take", -1, t0, t1)
		log.add("probe", "checkpoint.restore", -1, t2, t3)
		takes = append(takes, float64(t1.Sub(t0)))
		restores = append(restores, float64(t3.Sub(t2)))
		takeAllocs = append(takeAllocs, a1-a0)
	}
	add("checkpoint.take", time.Duration(median(takes)), "ms", median(takeAllocs))
	ms["checkpoint.restore_ms"] = metric{median(restores) / 1e6, "ms"}

	// twin and resultcache over the service workload's what-if cells.
	var cells []harness.CellSpec
	for _, app := range serviceApps {
		cells = append(cells, harness.SearchGrid(app, harness.DefaultVariant(app), 16)...)
	}
	tp := harness.NewPredictor(&wl)
	d, a = probe(log, "twin.predict", len(cells), func() {
		for _, c := range cells {
			if _, err := tp.PredictCell(c); err != nil {
				panic(err) // SearchGrid cells are valid
			}
		}
	})
	add("twin.predict", d, "us", a)

	keys := make([][]byte, len(cells))
	for i, c := range cells {
		k, err := c.Canonical(&wl)
		if err != nil {
			panic(err)
		}
		keys[i] = k
	}
	cache, err := resultcache.New(len(keys), "")
	if err != nil {
		panic(err) // memory-only construction cannot fail
	}
	d, a = probe(log, "resultcache.put", len(keys), func() {
		for _, k := range keys {
			cache.Put(k, harness.Result{})
		}
	})
	add("resultcache.put", d, "us", a)
	d, a = probe(log, "resultcache.get", len(keys), func() {
		for _, k := range keys {
			cache.Get(k)
		}
	})
	add("resultcache.get", d, "us", a)
	return ms
}
