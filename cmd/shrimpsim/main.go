// Command shrimpsim runs one or more applications on the simulated
// SHRIMP machine under a chosen configuration and reports execution
// time, the per-category time breakdown, and communication counters.
//
// Several applications may be named (comma separated); their independent
// simulations run concurrently on a worker pool (-parallel) and are
// reported in the order given, so output does not depend on the worker
// count.
//
// Usage:
//
//	shrimpsim -app barnes-svm|ocean-svm|radix-svm|radix-vmmc|
//	               barnes-nx|ocean-nx|dfs|render[,app...]
//	          [-nodes N] [-variant au|du] [-protocol hlrc|hlrc-au|aurc]
//	          [-syscall] [-intmsg] [-nocombine] [-fifo bytes] [-duqueue N]
//	          [-parallel N] [-share-prefix] [-quick] [-twin]
//	          [-trace FILE] [-trace-ndjson FILE] [-trace-filter KINDS]
//	          [-trace-max N] [-metrics]
//
// -twin answers from the analytical twin (internal/twin composed by
// the harness predictor) instead of running the DES — microseconds of
// arithmetic instead of seconds of simulation, calibrated cell by cell
// against the simulator (see shrimpbench -calibrate).
//
// Alternatively, -load drives a service with open-loop traffic
// (internal/workload) instead of running a batch application:
//
//	shrimpsim -load rpc/polling|rpc/notified|socket/du|socket/au|dfs/du
//	          [-offered MULT] [-nodes N] [-quick]
//	          [-load-record FILE | -load-replay FILE]
//
// -load-record writes the generated request trace to FILE before
// replaying it; -load-replay skips generation and replays a previously
// recorded artifact (byte-identical report, by construction).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"shrimp/internal/harness"
	"shrimp/internal/prof"
	"shrimp/internal/stats"
	"shrimp/internal/trace"
	"shrimp/internal/workload"
)

func main() {
	appNames := flag.String("app", "", "application(s) to run, comma separated")
	nodes := flag.Int("nodes", 16, "machine size")
	variant := flag.String("variant", "", "au or du (default: the app's best)")
	protocol := flag.String("protocol", "", "SVM protocol: hlrc, hlrc-au, aurc")
	syscall := flag.Bool("syscall", false, "charge a system call per message send (Table 2)")
	intmsg := flag.Bool("intmsg", false, "interrupt on every arriving message (Table 4)")
	nocombine := flag.Bool("nocombine", false, "disable automatic-update combining")
	fifo := flag.Int("fifo", 0, "outgoing FIFO size in bytes: sets the flow-control threshold (3/4) "+
		"and low-water mark (1/4), the only parts the simulator models; the capacity itself is "+
		"not enforced (0 = default 32 KB)")
	duq := flag.Int("duqueue", 0, "deliberate-update queue depth (0 = default 1)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"apps to simulate concurrently when several are named")
	sharePrefix := flag.Bool("share-prefix", false,
		"run apps sharing a warmup prefix from one checkpoint (output is identical)")
	quick := flag.Bool("quick", false, "use tiny problem sizes")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON timeline to this file")
	traceNDJSON := flag.String("trace-ndjson", "", "write the raw trace event stream as NDJSON to this file")
	traceFilter := flag.String("trace-filter", "", "comma-separated event kinds to trace (default: all)")
	traceMax := flag.Int("trace-max", 1<<20, "max trace events kept per app (0 = unlimited)")
	metrics := flag.Bool("metrics", false, "print per-app latency histograms and link utilization")
	twinMode := flag.Bool("twin", false,
		"predict with the analytical twin instead of simulating (closed form, no DES)")
	loadConfig := flag.String("load", "", "drive a service with open-loop traffic instead of -app "+
		"(rpc/polling, rpc/notified, socket/du, socket/au, dfs/du)")
	offered := flag.Float64("offered", 1, "offered-load multiplier for -load")
	loadRecord := flag.String("load-record", "", "write the generated request trace to this file (-load)")
	loadReplay := flag.String("load-replay", "", "replay a recorded request trace from this file (-load)")
	profFlags := prof.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := harness.CheckNodes(*nodes); err != nil {
		fmt.Fprintf(os.Stderr, "shrimpsim: -nodes: %v\n", err)
		os.Exit(2)
	}

	if *loadConfig != "" {
		runLoad(*loadConfig, *nodes, *offered, *quick, *twinMode, *loadRecord, *loadReplay)
		return
	}

	stopProf, err := profFlags.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "shrimpsim: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	var traceOpts *trace.Options
	if *traceFile != "" || *traceNDJSON != "" || *metrics {
		mask, err := trace.ParseFilter(*traceFilter)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shrimpsim: %v\n", err)
			os.Exit(2)
		}
		traceOpts = &trace.Options{Filter: mask, MaxEvents: *traceMax}
	}

	// Flags become Knobs rather than a build-time Mutate so the harness
	// can defer them to the post-warmup phase boundary, which is what
	// makes -share-prefix runs byte-identical to cold ones.
	var knobs harness.Knobs
	if *syscall {
		knobs.SyscallPerSend = ptr(true)
	}
	if *intmsg {
		knobs.InterruptPerMessage = ptr(true)
	}
	if *nocombine {
		knobs.Combining = ptr(false)
	}
	// A non-zero -fifo or -duqueue sets its knob, so Compile rejects an
	// out-of-domain value instead of the flag silently meaning default.
	if *fifo != 0 {
		knobs.OutFIFOBytes = ptr(*fifo)
		knobs.FIFOThresholdBytes = ptr(*fifo * 3 / 4)
		knobs.FIFOLowWaterBytes = ptr(*fifo / 4)
	}
	if *duq != 0 {
		knobs.DUQueueDepth = ptr(*duq)
	}

	var cells []harness.Spec
	for _, name := range strings.Split(*appNames, ",") {
		cell := harness.CellSpec{App: name, Nodes: *nodes, Variant: *variant, Protocol: *protocol, Knobs: knobs}
		spec, err := cell.Compile()
		if err != nil {
			fmt.Fprintf(os.Stderr, "shrimpsim: %v\n", err)
			os.Exit(2)
		}
		spec.Trace = traceOpts
		cells = append(cells, spec)
	}

	wl := harness.DefaultWorkloads()
	if *quick {
		wl = harness.QuickWorkloads()
	}
	if *twinMode {
		tp := harness.NewPredictor(&wl)
		for i, spec := range cells {
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("%s on %d nodes (%s)\n", spec.App, *nodes, wl.SizeString(spec.App))
			fmt.Printf("twin predicted time: %v (analytical, no simulation)\n", tp.PredictSpec(spec))
		}
		return
	}
	run := harness.RunCells
	if *sharePrefix {
		run = harness.RunCellsShared
	}
	results := run(context.Background(), cells, *parallel, &wl)

	for i, spec := range cells {
		if i > 0 {
			fmt.Println()
		}
		report(spec.App, *nodes, &wl, results[i])
		if *metrics && results[i].Trace != nil {
			fmt.Println()
			trace.WriteSummary(os.Stdout, results[i].Trace, cells[i].Label())
		}
	}

	if traceOpts != nil {
		var recs []*trace.Recorder
		var labels []string
		for i := range results {
			if results[i].Trace != nil {
				recs = append(recs, results[i].Trace)
				labels = append(labels, cells[i].Label())
			}
		}
		writeTraces(*traceFile, *traceNDJSON, recs, labels)
	}
}

// writeTraces renders the collected recorders to the requested files.
func writeTraces(chromePath, ndjsonPath string, recs []*trace.Recorder, labels []string) {
	write := func(path string, render func(w io.Writer) error) {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shrimpsim: %v\n", err)
			os.Exit(1)
		}
		bw := bufio.NewWriter(f)
		if err := render(bw); err == nil {
			err = bw.Flush()
		} else {
			bw.Flush()
		}
		if err2 := f.Close(); err == nil {
			err = err2
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "shrimpsim: writing %s: %v\n", path, err)
			os.Exit(1)
		}
	}
	if chromePath != "" {
		write(chromePath, func(w io.Writer) error { return trace.WriteChrome(w, recs, labels) })
	}
	if ndjsonPath != "" {
		write(ndjsonPath, func(w io.Writer) error { return trace.WriteNDJSON(w, recs, labels) })
	}
}

func ptr[T any](v T) *T { return &v }

// runLoad executes one open-loop load cell: generate (or replay) the
// request trace, drive the service, print the report.
func runLoad(config string, nodes int, offered float64, quick, twinMode bool, record, replay string) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "shrimpsim: %v\n", err)
		os.Exit(1)
	}
	if record != "" && replay != "" {
		fail(fmt.Errorf("-load-record and -load-replay are mutually exclusive"))
	}
	params := harness.DefaultLoadParams()
	if quick {
		params = harness.QuickLoadParams()
	}
	cell := harness.LoadCell{Config: config, Nodes: nodes, Offered: offered, Params: params}

	if twinMode {
		wl := harness.DefaultWorkloads()
		if quick {
			wl = harness.QuickWorkloads()
		}
		tp := harness.NewPredictor(&wl)
		rows, err := tp.PredictLoad(cell)
		if err != nil {
			fail(err)
		}
		e, _ := harness.FindExperiment("load")
		harness.PrintTwinRows(os.Stdout, e, rows)
		return
	}

	var tr *workload.Trace
	if replay != "" {
		f, err := os.Open(replay)
		if err != nil {
			fail(err)
		}
		tr, err = workload.Decode(bufio.NewReader(f))
		f.Close()
		if err != nil {
			fail(err)
		}
		if tr.Nodes != nodes {
			fail(fmt.Errorf("trace %s was recorded for %d nodes; pass -nodes %d", replay, tr.Nodes, tr.Nodes))
		}
	} else {
		var err error
		if tr, err = cell.GenerateTrace(); err != nil {
			fail(err)
		}
		if record != "" {
			f, err := os.Create(record)
			if err != nil {
				fail(err)
			}
			err = tr.Encode(f)
			if err2 := f.Close(); err == nil {
				err = err2
			}
			if err != nil {
				fail(fmt.Errorf("writing %s: %w", record, err))
			}
			fmt.Printf("recorded %d requests to %s\n", len(tr.Reqs), record)
		}
	}

	rows, err := harness.RunLoadTrace(cell, tr)
	if err != nil {
		fail(err)
	}
	cfg := harness.DefaultExperimentConfig()
	cfg.Nodes = nodes
	harness.PrintLoad(os.Stdout, cfg, rows)
}

func report(app harness.App, nodes int, wl *harness.Workloads, res harness.Result) {
	fmt.Printf("%s on %d nodes (%s)\n", app, nodes, wl.SizeString(app))
	fmt.Printf("execution time: %v\n", res.Elapsed)
	fmt.Println("time breakdown (all nodes):")
	total := res.Breakdown.Total()
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		fmt.Printf("  %-10s %12v  (%5.1f%%)\n", c, res.Breakdown[c],
			100*float64(res.Breakdown[c])/float64(total))
	}
	c := res.Counters
	fmt.Println("counters:")
	fmt.Printf("  messages sent     %12d\n", c.MessagesSent)
	fmt.Printf("  notifications     %12d\n", c.Notifications)
	fmt.Printf("  interrupts        %12d\n", c.Interrupts)
	fmt.Printf("  syscalls          %12d\n", c.Syscalls)
	fmt.Printf("  AU stores/packets %12d / %d\n", c.AUStores, c.AUPackets)
	fmt.Printf("  DU transfers      %12d\n", c.DUTransfers)
	fmt.Printf("  bytes sent        %12d\n", c.BytesSent)
	fmt.Printf("  page faults       %12d (fetched %d)\n", c.PageFaults, c.PagesFetched)
	fmt.Printf("  diffs created     %12d\n", c.DiffsCreated)
	fmt.Printf("  FIFO high water   %12d bytes\n", res.FIFOHigh)
}
