package main

import (
	"bytes"
	"fmt"
	"time"

	"shrimp/internal/harness"
	"shrimp/internal/trace"
)

// paperSweep is `shrimpbench -exp all -quick` plus the hidden load
// family: every registry experiment at 16 nodes with quick sizes, cold
// (no prefix sharing, no result cache). Each experiment is one job, as
// in `shrimpbench -exp <name>` or a shrimpd experiment job. Jobs and
// their cells run one at a time: with every CPU busy the host's own
// noise lands on the critical path, and serial passes repeat about
// twice as closely. The output is checked against the text and loadtext
// digests of scripts/golden.sha256.
type paperSweep struct {
	golden map[string]string
	pins   map[string]string
	cfg    harness.Config
	jobs   []paperJob
}

type paperJob struct {
	e      harness.Experiment
	labels map[string]string // canonical cell encoding -> cell label
	ops    int               // cells, or 1 for an experiment not built from cells
}

func newPaperSweep(int64) (workload, error) {
	golden, err := readGolden("scripts/golden.sha256")
	if err != nil {
		return nil, err
	}
	if golden["text"] == "" || golden["loadtext"] == "" {
		return nil, fmt.Errorf("golden digests: text or loadtext missing")
	}
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	return &paperSweep{golden: golden, pins: pins}, nil
}

func (p *paperSweep) setup(l *ledger) error {
	cfg := harness.DefaultExperimentConfig()
	cfg.Workloads = harness.QuickWorkloads()
	cfg.Workers = 1
	p.cfg = cfg
	p.jobs = p.jobs[:0]
	for _, e := range harness.Experiments() {
		if e.Hidden && e.Name != "load" {
			continue
		}
		j := paperJob{e: e, labels: map[string]string{}, ops: 1}
		if e.Cells != nil {
			cells := e.Cells(cfg)
			j.ops = len(cells)
			for _, c := range cells {
				key, err := c.Canonical(&cfg.Workloads)
				if err != nil {
					return fmt.Errorf("%s: %w", e.Name, err)
				}
				j.labels[string(key)] = cellLabel(c)
			}
		}
		p.jobs = append(p.jobs, j)
	}
	return warmUp(l, p.pins)
}

// warmUp runs warmCell once and checks its result.
func warmUp(l *ledger, pins map[string]string) error {
	spec, err := warmCell.Compile()
	if err != nil {
		return err
	}
	wl := harness.QuickWorkloads()
	l.ops(1)
	if got := resultDigest(harness.Run(spec, &wl)); got != pins[cellKey(warmCell)] {
		l.fail(1, "warm-up cell result differs from its pinned digest", false)
	}
	return nil
}

func (p *paperSweep) teardown() {}

func (p *paperSweep) pass(l *ledger, traced bool) error {
	outs := make([]bytes.Buffer, len(p.jobs))
	failed := make([]bool, len(p.jobs))
	for i, j := range p.jobs {
		cfg := p.cfg
		timer := &cellTimer{labels: j.labels}
		if traced {
			cfg.Trace = traceOptions()
			cfg.TraceSink = func(_ harness.Spec, rec *trace.Recorder) { l.addRecorder(rec) }
		} else if j.e.Cells != nil {
			cfg.Cache = timer
		}
		l.ops(j.ops)
		t0 := time.Now()
		var rows any
		err := protect(func() {
			rows = j.e.Run(cfg)
			j.e.Print(&outs[i], cfg, rows)
		})
		t1 := time.Now()
		id := l.spans.add("job", j.e.Name, -1, t0, t1)
		if err != nil {
			failed[i] = true
			l.fail(j.ops, j.e.Name+": "+err.Error(), false)
			continue
		}
		l.job(ms(t1.Sub(t0)))
		for _, c := range timer.cells {
			l.spans.add("cell", c.label, id, c.start, c.end)
			l.cell(c.label, ms(c.end.Sub(c.start)))
			if !traced {
				l.addCounters(&c.res.Counters)
			}
		}
		if loadRows, ok := rows.([]harness.LoadRow); ok && !traced {
			var n int64
			for _, r := range loadRows {
				n += r.Requests
			}
			l.requests += n
		}
	}

	// Reassemble the two golden streams exactly as shrimpbench prints
	// them: the header, then each experiment in registry order.
	header := fmt.Sprintf("SHRIMP design-choice evaluation — %d nodes, workloads: %s\n",
		p.cfg.Nodes, p.cfg.Workloads.Note)
	text := bytes.NewBufferString(header)
	load := bytes.NewBufferString(header)
	// An experiment that failed is counted already and spoils its
	// stream's digest, so that stream is not checked again.
	textOps, loadOps := 0, 0
	textOK, loadOK := true, true
	for i, j := range p.jobs {
		out, ops, ok := text, &textOps, &textOK
		if j.e.Hidden {
			out, ops, ok = load, &loadOps, &loadOK
		}
		out.Write(outs[i].Bytes())
		*ops += j.ops
		*ok = *ok && !failed[i]
	}
	if textOK && sha(text.Bytes()) != p.golden["text"] {
		l.fail(textOps, "paper-sweep text output differs from the golden text digest", false)
	}
	if loadOK && sha(load.Bytes()) != p.golden["loadtext"] {
		l.fail(loadOps, "load output differs from the golden loadtext digest", false)
	}
	return nil
}

// cellTimer times the cells of one serially run experiment through the
// harness's cache hooks. With one worker the harness looks every cell up
// before simulating any, then simulates them in order and stores each
// result as it finishes, so the gap between successive hook calls is
// one cell's host time. It never reports a hit: every cell runs cold.
type cellTimer struct {
	labels map[string]string
	last   time.Time
	cells  []timedCell
}

type timedCell struct {
	label      string
	start, end time.Time
	res        harness.Result
}

func (t *cellTimer) Get([]byte) (harness.Result, bool) {
	t.last = time.Now()
	return harness.Result{}, false
}

func (t *cellTimer) Put(key []byte, r harness.Result) {
	now := time.Now()
	label, ok := t.labels[string(key)]
	if !ok {
		label = "unlisted"
	}
	t.cells = append(t.cells, timedCell{label: label, start: t.last, end: now, res: r})
	t.last = now
}
