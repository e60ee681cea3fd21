package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"shrimp/internal/harness"
	"shrimp/internal/stats"
	"shrimp/internal/trace"
)

// scale64 runs every application x {AU, DU} at 64 nodes plus
// radix-vmmc/AU at 128, quick sizes, cold, one cell after another. Each
// cell is one job of the sweep. Per-node arenas and import tables grow
// faster than the simulated work, so this is where allocation and memory
// dominate. Each cell's Result is checked against digests.txt.
//
// Each pass runs the whole grid in one child process of this binary, as
// a user runs one `shrimpsim -nodes 64` sweep: the memory package pools
// page arenas for the life of a process, so a pass starts with an empty
// pool, recycles arenas from cell to cell, and ends holding the pool's
// high-water mark — about 3 GB, the memory wall this workload exists to
// show. Cells run serially because two workers double that; 256 nodes is
// left out for the same reason (about 5 GB for that one cell).
type scale64 struct {
	pins map[string]string
	self string
}

// knownScaleFailures maps the cells whose application validation panics
// at this commit (the simulated answer is wrong) to the start of that
// panic. They stay in the workload, counted as failed operations, until
// the defect is fixed; any other failure of these cells is not known.
var knownScaleFailures = map[string]string{
	cellKey(harness.CellSpec{App: "Barnes-SVM", Nodes: 64, Variant: "DU"}): "barnes: body 0 pos[0] ",
	cellKey(harness.CellSpec{App: "Ocean-NX", Nodes: 64, Variant: "AU"}):   "ocean: grid differs at cell 51:",
	cellKey(harness.CellSpec{App: "Ocean-NX", Nodes: 64, Variant: "DU"}):   "ocean: grid differs at cell 51:",
}

// scaleCells lists the grid.
func scaleCells() []harness.CellSpec {
	cells := []harness.CellSpec{{App: harness.RadixVMMC.String(), Nodes: 128, Variant: "AU"}}
	for _, a := range harness.AllApps() {
		for _, v := range []string{"AU", "DU"} {
			cells = append(cells, harness.CellSpec{App: a.String(), Nodes: 64, Variant: v})
		}
	}
	return cells
}

func newScale64(int64) (workload, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return &scale64{pins: pins, self: self}, nil
}

func (s *scale64) setup(l *ledger) error {
	for _, c := range scaleCells() {
		if _, err := c.Compile(); err != nil {
			return err
		}
	}
	return warmUp(l, s.pins)
}

func (s *scale64) teardown() {}

// gridReply is what the --scale-grid child prints: each cell's outcome
// and the host cost of the whole pass.
type gridReply struct {
	Cells []cellOutcome `json:"cells"`
	Stats passStats     `json:"stats"`
}

type cellOutcome struct {
	Err      string                `json:"err,omitempty"` // the panic that failed the cell
	Digest   string                `json:"digest,omitempty"`
	Counters stats.Counters        `json:"counters"`
	Start    int64                 `json:"start_unix_ns"`
	Dur      time.Duration         `json:"dur_ns"` // harness.Run alone
	Kinds    [trace.NumKinds]int64 `json:"kinds"`
}

// childProfile is where a traced child writes its CPU profile.
var childProfile = filepath.Join(outDir, "scale-64.child.pprof")

func (s *scale64) pass(l *ledger, traced bool) error {
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	var out bytes.Buffer
	cmd := exec.Command(s.self, "--scale-grid", "--trace", traceArg)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	// The child must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("scale-64 grid: %w", err)
	}
	var rep gridReply
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return fmt.Errorf("scale-64 grid: reply: %w", err)
	}
	cells := scaleCells()
	if len(rep.Cells) != len(cells) {
		return fmt.Errorf("scale-64 grid: %d cells in reply, want %d", len(rep.Cells), len(cells))
	}
	var profile string
	if traced {
		profile = childProfile
	}
	l.child(rep.Stats, profile)
	l.ops(len(cells))
	for i, c := range cells {
		o := rep.Cells[i]
		key, label := cellKey(c), cellLabel(c)
		start := time.Unix(0, o.Start)
		l.spans.add("cell", fmt.Sprintf("%s/n%d", label, c.Nodes), -1, start, start.Add(o.Dur))
		known, isKnown := knownScaleFailures[key]
		if o.Err != "" {
			l.fail(1, fmt.Sprintf("%s/n%d: %s", label, c.Nodes, o.Err), isKnown && strings.HasPrefix(o.Err, known))
			continue
		}
		l.cell(label, ms(o.Dur))
		l.job(ms(o.Dur))
		want, pinned := s.pins[key]
		switch {
		case pinned && o.Digest != want:
			l.fail(1, key+": result differs from its pinned digest", false)
		case !pinned && isKnown:
			l.note(fmt.Sprintf("%s/n%d: known failure passed its own validation; pin its digest", label, c.Nodes))
		case !pinned:
			l.fail(1, key+": no pinned digest", false)
		}
		if traced {
			l.addKinds(o.Kinds)
		} else {
			l.addCounters(&o.Counters)
		}
	}
	return nil
}

// runScaleGrid is the child side: it simulates the grid cell by cell in
// this one process and prints a gridReply. A panicking cell is an
// outcome, not a crash. Traced, it attaches the trace recorder to every
// cell and writes a CPU profile to childProfile.
func runScaleGrid(traced bool) error {
	cells := scaleCells()
	if traced {
		f, err := os.Create(childProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	wl := harness.QuickWorkloads()
	rep := gridReply{Cells: make([]cellOutcome, len(cells))}
	pm := startPass()
	for i, c := range cells {
		s, err := c.Compile()
		if err != nil {
			return err
		}
		if traced {
			s.Trace = traceOptions()
		}
		o := &rep.Cells[i]
		var r harness.Result
		t0 := time.Now()
		o.Start = t0.UnixNano()
		if err := protect(func() { r = harness.Run(s, &wl) }); err != nil {
			o.Err = err.Error()
		}
		o.Dur = time.Since(t0)
		if o.Err != "" {
			continue
		}
		o.Digest = resultDigest(r)
		o.Counters = r.Counters
		if r.Trace != nil {
			for _, ev := range r.Trace.Events() {
				o.Kinds[ev.Kind]++
			}
		}
	}
	rep.Stats = pm.end()
	if traced {
		pprof.StopCPUProfile()
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}
