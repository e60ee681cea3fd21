// Command perfbench is the repository's performance ledger. It runs one
// workload in-process through the public harness and server APIs, checks
// the simulated output against pinned digests, and prints host-side cost
// — how fast the simulator runs, never what it simulates.
//
//	perfbench --workload paper-sweep|scale-64|service-whatif \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 it repeats the workload for S seconds and reports the
// end-to-end metrics. With --trace 1 it runs one plain and one traced
// pass (CPU profile plus the program's trace recorders) and the layer
// probes, and reports the per-layer metrics. The last line of standard
// output is the JSON result; the lines before it are a readable report.
// Run it from the repository root (perfbench/run.sh builds and does so).
// See perfbench/README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"shrimp/internal/stats"
	"shrimp/internal/trace"
)

// outDir holds what a run leaves behind (spans, profiles, spill
// directories), under the build directory run.sh uses.
const outDir = ".bench_build/perfbench"

// minPasses is the fewest passes a timed run makes, so every per-pass
// figure is taken over at least three.
const minPasses = 3

// workload is one benchmark input set.
type workload interface {
	// setup readies one pass: it builds the pass's inputs from the seed
	// and runs a warm-up whose output is checked.
	setup(l *ledger) error
	// pass runs the workload once; traced attaches the program's trace
	// recorders to every cell that accepts one.
	pass(l *ledger, traced bool) error
	// teardown releases what setup acquired.
	teardown()
}

var workloads = map[string]func(seed int64) (workload, error){
	"paper-sweep":    newPaperSweep,
	"scale-64":       newScale64,
	"service-whatif": newServiceWhatIf,
}

// ledger accumulates what a run observed. Workloads call it from any
// goroutine.
type ledger struct {
	spans *spanLog

	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  map[string]int64 // reason -> count
	wrong     []string         // outputs that failed their check

	// Host time of every cell, job and twin query of the counted passes,
	// pooled over passes: every pass does the same work, so percentiles
	// over the pool average out which jobs happened to overlap.
	cells, jobs           int64                // completed
	cellMs, jobMs, twinMs []float64            // host ms
	cellMsByLabel         map[string][]float64 // "app.variant" -> host ms

	// Work counters of plain passes (exact, repeat bit for bit).
	counters stats.Counters
	requests int64 // open-loop requests simulated by the load family
	// Per-kind event counts and latency histograms of traced passes.
	kinds [trace.NumKinds]int64
	hists [trace.NumClasses]trace.Hist

	// Host cost of child processes in the current pass, and the CPU
	// profiles they wrote (traced passes).
	ext      passStats
	profiles []string
	notes    []string // observations for the report that are not failures

	// shrimpd, scraped from /metrics and counted by the clients.
	cacheHits, cacheLookups, spills int64
	queueWaitNs, queueWaitN         float64
	streamBytes                     int64
}

func newLedger() *ledger {
	return &ledger{
		spans: newSpanLog(), failures: map[string]int64{},
		cellMsByLabel: map[string][]float64{},
	}
}

// child adds a child process's host cost to the current pass, and the
// CPU profile it wrote, if any.
func (l *ledger) child(ps passStats, profile string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ext.merge(ps)
	if profile != "" {
		l.profiles = append(l.profiles, profile)
	}
}

// note records an observation the report prints.
func (l *ledger) note(msg string) {
	l.mu.Lock()
	l.notes = append(l.notes, msg)
	l.mu.Unlock()
}

// ops counts n attempted operations.
func (l *ledger) ops(n int) {
	l.mu.Lock()
	l.attempted += int64(n)
	l.mu.Unlock()
}

// fail counts n failed operations. A failure the workload does not list
// as known also makes the run incorrect.
func (l *ledger) fail(n int, reason string, known bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed += int64(n)
	l.failures[reason] += int64(n)
	if !known {
		l.wrong = append(l.wrong, reason)
	}
}

// cell records one completed cell of the application and variant label.
func (l *ledger) cell(label string, dur float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cells++
	l.cellMs = append(l.cellMs, dur)
	l.cellMsByLabel[label] = append(l.cellMsByLabel[label], dur)
}

// job records one completed job.
func (l *ledger) job(dur float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.jobs++
	l.jobMs = append(l.jobMs, dur)
}

func (l *ledger) addCounters(c *stats.Counters) {
	l.mu.Lock()
	l.counters.Add(c)
	l.mu.Unlock()
}

// addRecorder folds one traced cell's recorder into the per-kind counts
// and latency histograms.
func (l *ledger) addRecorder(rec *trace.Recorder) {
	if rec == nil {
		return
	}
	var kinds [trace.NumKinds]int64
	for _, ev := range rec.Events() {
		kinds[ev.Kind]++
	}
	l.addKinds(kinds)
	l.mu.Lock()
	defer l.mu.Unlock()
	for c := trace.Class(0); c < trace.NumClasses; c++ {
		l.hists[c].Merge(rec.Hist(c))
	}
}

// addKinds adds per-kind trace event counts.
func (l *ledger) addKinds(kinds [trace.NumKinds]int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k := range kinds {
		l.kinds[k] += kinds[k]
	}
}

// traceOptions is what traced passes attach: only the event kinds the
// ledger counts are kept (latency histograms are always recorded), which
// bounds the recorder's memory on 128-node cells.
func traceOptions() *trace.Options {
	mask, err := trace.ParseFilter("proc-spawn,pkt-send,link-hop,combine-hit")
	if err != nil {
		panic(err) // the kind names above are fixed
	}
	return &trace.Options{Filter: mask}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "paper-sweep, scale-64 or service-whatif")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 25, "how long a timed run measures")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	pin := flag.Bool("pin", false, "simulate every pinned cell and print digests.txt, then exit")
	scaleGrid := flag.Bool("scale-grid", false, "simulate the scale-64 grid and print its reply: the scale-64 child")
	flag.Parse()

	if *scaleGrid {
		if err := runScaleGrid(*traced == 1); err != nil {
			fatal(err)
		}
		return
	}

	if *pin {
		if err := printPins(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload paper-sweep|scale-64|service-whatif, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	w, err := mk(*seed)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	fmt.Printf("perfbench workload=%s seed=%d trace=%d nproc=%d %s/%s %s\n",
		*name, *seed, *traced, runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version())

	l := newLedger()
	var ms map[string]metric
	if *traced == 1 {
		ms, err = tracedRun(w, l)
	} else {
		ms, err = timedRun(w, l, time.Duration(*seconds)*time.Second)
	}
	if err == nil {
		err = writeSpans(filepath.Join(outDir, fmt.Sprintf("%s.trace%d.spans.ndjson", *name, *traced)), l.spans)
	}
	if err != nil {
		fatal(err)
	}

	report(os.Stdout, l, ms)
	out, err := json.Marshal(result{
		Correct:   len(l.wrong) == 0,
		Attempted: l.attempted,
		Failed:    l.failed,
		Metrics:   ms,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// onePass runs setup, one measured pass and teardown, recording both as
// spans.
func onePass(w workload, l *ledger, traced bool) (setup time.Duration, ps passStats, err error) {
	t0 := time.Now()
	err = w.setup(l)
	t1 := time.Now()
	setup = t1.Sub(t0)
	l.spans.add("setup", "", -1, t0, t1)
	if err == nil {
		l.ext = passStats{}
		pm := startPass()
		err = w.pass(l, traced)
		ps = pm.end()
		ps.merge(l.ext)
		l.spans.add("pass", fmt.Sprintf("traced=%v", traced), -1, t1, time.Now())
	}
	w.teardown()
	return setup, ps, err
}

// timedRun repeats the workload for d (and at least minPasses times)
// and returns the end-to-end metrics: each pass's figure is the median
// over passes, and cell and job times are percentiles over all passes'
// samples. The host's speed wanders by tens of percent over seconds to
// minutes, so a run's median is the figure that reproduces; its fastest
// pass is an extreme and reproduces worse.
func timedRun(w workload, l *ledger, d time.Duration) (map[string]metric, error) {
	var setups, walls, cpus, allocs, peaks []float64
	var total time.Duration
	for len(walls) < minPasses || total < d {
		su, ps, err := onePass(w, l, false)
		if err != nil {
			return nil, err
		}
		total += ps.Wall
		setups = append(setups, su.Seconds())
		walls = append(walls, ps.Wall.Seconds())
		cpus = append(cpus, ps.CPU.Seconds())
		allocs = append(allocs, ps.AllocB/(1<<20))
		peaks = append(peaks, ps.PeakHeapB/(1<<20))
	}
	passes := float64(len(walls))
	wall := median(walls)
	return map[string]metric{
		"setup_s":      {median(setups), "s"},
		"wall_s":       {wall, "s"},
		"cpu_s":        {median(cpus), "s"},
		"cells_per_s":  {float64(l.cells) / passes / wall, "1/s"},
		"cell_ms_p50":  {quantile(l.cellMs, 0.5), "ms"},
		"cell_ms_p90":  {quantile(l.cellMs, 0.9), "ms"},
		"peak_heap_mb": {median(peaks), "MB"},
		"alloc_mb":     {median(allocs), "MB"},
		"job_ms_p50":   {quantile(l.jobMs, 0.5), "ms"},
		"job_ms_p90":   {quantile(l.jobMs, 0.9), "ms"},
		"jobs_per_s":   {float64(l.jobs) / passes / wall, "1/s"},
	}, nil
}

// tracedRun makes one plain pass (spans, counters), one traced pass
// (CPU profile and trace recorders) and the layer probes, and returns
// the per-layer metrics.
func tracedRun(w workload, l *ledger) (map[string]metric, error) {
	_, plain, err := onePass(w, l, false)
	if err != nil {
		return nil, err
	}
	// The traced pass's spans and outcomes must not mix into the plain
	// pass's per-cell numbers, so it reports into its own ledger (sharing
	// the span log), and only its recorder counts and outcomes carry over.
	tl := newLedger()
	tl.spans = l.spans
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	_, tracedPS, err := onePass(w, tl, true)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	l.kinds, l.hists = tl.kinds, tl.hists
	l.attempted += tl.attempted
	l.failed += tl.failed
	for r, n := range tl.failures {
		l.failures[r] += n
	}
	l.wrong = append(l.wrong, tl.wrong...)
	l.notes = append(l.notes, tl.notes...)
	profile := filepath.Join(outDir, "cpu.pprof")
	if err := os.WriteFile(profile, prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	shares, err := profileNs(append([]string{profile}, tl.profiles...)...)
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, ns := range shares {
		sum += ns
	}
	if sum == 0 {
		return nil, fmt.Errorf("traced pass: empty CPU profile")
	}
	for b := range shares {
		shares[b] /= sum
	}

	ms := map[string]metric{}
	for _, layer := range layers {
		ms[layer+".cpu_share"] = metric{shares[layer], "share"}
	}
	for _, b := range runtimeBuckets {
		ms["runtime."+b+"_share"] = metric{shares["runtime."+b], "share"}
	}
	ms["other.cpu_share"] = metric{shares["other"], "share"}
	ms["runtime.gc_cpu_s"] = metric{plain.GCCPU, "s"}
	ms["runtime.heap_objects"] = metric{plain.AllocObjs, "count"}
	ms["trace.overhead_pct"] = metric{(tracedPS.Wall.Seconds()/plain.Wall.Seconds() - 1) * 100, "%"}

	c := &l.counters
	count := func(name string, v int64) { ms[name] = metric{float64(v), "count"} }
	count("sim.proc_spawns", l.kinds[trace.KProcSpawn])
	count("vmmc.messages", c.MessagesSent)
	count("vmmc.bytes", c.BytesSent)
	count("mesh.pkts", l.kinds[trace.KPktSend])
	count("mesh.link_hops", l.kinds[trace.KLinkHop])
	count("nic.au_packets", c.AUPackets)
	count("nic.du_transfers", c.DUTransfers)
	count("nic.flow_stalls", c.FlowStalls)
	count("nic.interrupts", c.Interrupts)
	count("svm.page_faults", c.PageFaults)
	count("svm.diffs_created", c.DiffsCreated)
	count("svm.pages_fetched", c.PagesFetched)
	count("workload.requests", l.requests)
	count("resultcache.spill_writes", l.spills)
	count("server.stream_bytes", l.streamBytes)
	ms["nic.combine_ratio"] = metric{ratio(float64(l.kinds[trace.KCombineHit]), float64(c.AUStores)), "ratio"}
	ms["resultcache.hit_ratio"] = metric{ratio(float64(l.cacheHits), float64(l.cacheLookups)), "ratio"}
	ms["server.queue_wait_ms"] = metric{ratio(l.queueWaitNs, l.queueWaitN) / 1e6, "ms"}
	ms["twin.request_ms"] = metric{median(l.twinMs), "ms"}
	for _, label := range cellLabels() {
		ms["harness.cell_ms."+label] = metric{median(l.cellMsByLabel[label]), "ms"}
	}
	for name, m := range runProbes(l.spans) {
		ms[name] = m
	}
	return ms, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes the run's spans as NDJSON.
func writeSpans(path string, l *spanLog) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// report prints the readable summary: every metric with its unit, the
// timing distributions with their tail and sample count, and every
// failure with its reason.
func report(w io.Writer, l *ledger, ms map[string]metric) {
	dist := func(name string, xs []float64) {
		if len(xs) == 0 {
			return
		}
		fmt.Fprintf(w, "  %-28s p50 %.3f ms", name, median(xs))
		if p := tailPercentile(len(xs)); p > 50 {
			fmt.Fprintf(w, ", p%d %.3f ms", p, quantile(xs, float64(p)/100))
		}
		fmt.Fprintf(w, " (n=%d)\n", len(xs))
	}
	dist("cell", l.cellMs)
	dist("job", l.jobMs)
	dist("twin request", l.twinMs)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	fmt.Fprintf(w, "  %-36s %14.6g (%d of %d operations)\n", "error_rate", ratio(float64(l.failed), float64(l.attempted)), l.failed, l.attempted)
	reasons := make([]string, 0, len(l.failures))
	for r := range l.failures {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(w, "  failed x%d: %s\n", l.failures[r], r)
	}
	for c := trace.Class(0); c < trace.NumClasses; c++ {
		if h := &l.hists[c]; h.Count() > 0 {
			fmt.Fprintf(w, "  simulated %s latency: p50 %d ns, p99 %d ns (n=%d)\n", c, h.Quantile(0.5), h.Quantile(0.99), h.Count())
		}
	}
	for _, n := range l.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if len(l.wrong) > 0 {
		fmt.Fprintf(w, "  INCORRECT: %d output check(s) failed\n", len(l.wrong))
	}
}
