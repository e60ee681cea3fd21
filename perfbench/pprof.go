package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// The CPU profile of a traced pass is attributed to layers by its leaf
// frame: the package of the innermost function of each sample. Runtime
// leaves are split further by what the stack was doing — garbage
// collection, allocation (mallocgc, memclr, memmove) or scheduling
// (goroutine park/wake, channel handoff, futex) — because the runtime is
// where two different simulator costs land: proc switching and memory.

// layers are the module names a CPU share is reported for; any other
// leaf package (the rest of the standard library, internal/stats,
// internal/bsp, the benchmark itself) lands in "other".
var layers = []string{
	"sim", "memory", "vmmc", "mesh", "nic", "svm", "ring", "nx", "socketlib",
	"rpc", "workload", "apps", "machine", "harness", "checkpoint",
	"resultcache", "server", "twin", "trace",
}

// runtimeBuckets are the shares runtime leaves split into.
var runtimeBuckets = []string{"sched", "alloc", "gc", "other"}

var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcDrain": true, "runtime.gcDrainN": true,
	"runtime.gcAssistAlloc": true, "runtime.gcAssistAlloc1": true, "runtime.markroot": true,
	"runtime.bgsweep": true, "runtime.bgscavenge": true, "runtime.sweepone": true,
	"runtime.gcStart": true, "runtime.gcMarkTermination": true, "runtime.scanobject": true,
}

var allocLeaves = map[string]bool{
	"runtime.memclrNoHeapPointers": true, "runtime.memmove": true,
}

var schedFrames = map[string]bool{
	"runtime.schedule": true, "runtime.park_m": true, "runtime.gopark": true,
	"runtime.goready": true, "runtime.ready": true, "runtime.chansend": true,
	"runtime.chanrecv": true, "runtime.selectgo": true, "runtime.mcall": true,
	"runtime.findRunnable": true, "runtime.casgstatus": true, "runtime.futex": true,
	"runtime.futexsleep": true, "runtime.futexwakeup": true, "runtime.notesleep": true,
	"runtime.notewakeup": true, "runtime.wakep": true, "runtime.startm": true,
	"runtime.stopm": true, "runtime.runqget": true, "runtime.runqput": true,
	"runtime.goexit0": true, "runtime.newproc": true, "runtime.execute": true,
	"runtime.gogo": true, "runtime.lock2": true, "runtime.unlock2": true,
	"runtime.usleep": true, "runtime.osyield": true, "runtime.stealWork": true,
	"runtime.netpoll": true, "runtime.handoffp": true, "runtime.entersyscall": true,
	"runtime.exitsyscall": true, "runtime.goschedImpl": true,
}

// profileNs attributes the samples of one or more CPU profiles with
// `go tool pprof -traces` and returns each bucket's sampled CPU
// nanoseconds, keyed "<layer>" for modules, "runtime.<bucket>" for the
// runtime and "other" for the rest.
func profileNs(files ...string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-traces", "-symbolize=none"}, files...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	return tracesNs(out)
}

// tracesNs sums the output of `pprof -traces` per bucket. The output is
// a header, then one block per stack, each opened by a separator line:
// the block's first line is the sampled time and the leaf frame, and
// each following line one caller.
func tracesNs(out []byte) (map[string]float64, error) {
	totals := map[string]float64{}
	var ns float64
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			totals[bucketOf(frames)] += ns
		}
		frames = frames[:0]
	}
	inStacks := false
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inStacks = true
			continue
		}
		frame := strings.TrimSuffix(strings.TrimSpace(line), " (inline)")
		if !inStacks || frame == "" {
			continue
		}
		if len(frames) == 0 {
			value, rest, _ := strings.Cut(frame, " ")
			value = strings.NewReplacer("mins", "m", "hrs", "h").Replace(value)
			d, err := time.ParseDuration(value)
			if err != nil || strings.TrimSpace(rest) == "" {
				return nil, fmt.Errorf("pprof -traces: bad stack line %q", line)
			}
			ns = float64(d)
			frame = strings.TrimSpace(rest)
		}
		frames = append(frames, frame)
	}
	flush()
	if !inStacks {
		return nil, fmt.Errorf("pprof -traces: no stacks in %q", out)
	}
	return totals, nil
}

// bucketOf attributes one stack (leaf first) to a bucket.
func bucketOf(frames []string) string {
	pkg := pkgOf(frames[0])
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		has := func(set map[string]bool) bool {
			for _, f := range frames {
				if set[f] {
					return true
				}
			}
			return false
		}
		switch {
		case has(gcFrames):
			return "runtime.gc"
		case allocLeaves[frames[0]] || has(map[string]bool{"runtime.mallocgc": true}):
			return "runtime.alloc"
		case has(schedFrames):
			return "runtime.sched"
		}
		return "runtime.other"
	}
	if rest, ok := strings.CutPrefix(pkg, "shrimp/internal/"); ok {
		if strings.HasPrefix(rest, "apps/") {
			return "apps"
		}
		for _, l := range layers {
			if rest == l {
				return l
			}
		}
	}
	return "other"
}

// pkgOf returns the import path of a symbol name such as
// "shrimp/internal/sim.(*Queue[...]).Pop".
func pkgOf(fn string) string {
	// Type arguments may contain paths and dots; drop them first.
	var b strings.Builder
	depth := 0
	for _, r := range fn {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := b.String()
	slash := strings.LastIndex(s, "/")
	dot := strings.Index(s[slash+1:], ".")
	if dot < 0 {
		return s
	}
	return s[:slash+1+dot]
}
