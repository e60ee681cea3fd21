package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"shrimp/internal/harness"
	"shrimp/internal/resultcache"
	"shrimp/internal/server"
)

// serviceWhatIf is an in-process shrimpd served over loopback HTTP, with
// serviceClients closed-loop clients: each waits for a job's full NDJSON
// stream before sending its next request. Every pass starts a fresh
// server, result cache and spill directory (that is the set-up), so
// every pass does the same work. Each client's requests are drawn from
// the seed alone and mix
//   - twin queries on a knob grid (reads, no simulation),
//   - new share_prefix what-if grids for radix-vmmc and ocean-svm at 16
//     nodes (simulate, fork from a checkpoint, insert into the cache,
//     and spill once the cache is full),
//   - re-submissions of the client's earlier grids (cache reads), and
//   - one quick load experiment job.
//
// Grid rows are checked against digests.txt, the load job against the
// golden loadjson digest, and twin answers against the predictor.
type serviceWhatIf struct {
	pins   map[string]string
	golden map[string]string
	wl     harness.Workloads
	plans  [][]request // per client

	// per pass, built by setup
	dir      string
	srv      *server.Server
	hs       *http.Server
	served   chan error
	client   *http.Client
	base     string
	metrics0 map[string]float64
}

// serviceApps are the applications whose what-if grids the clients
// submit.
var serviceApps = []harness.App{harness.RadixVMMC, harness.OceanSVM}

const (
	// serviceClients is the number of closed-loop clients.
	serviceClients = 2
	// gridCells is the size of one what-if grid job: the FIFO-threshold
	// x DU-queue-depth sweep of SearchGrid.
	gridCells = 6
	// twinCells is the size of one twin query.
	twinCells = 12
	// resubmits is how many earlier grids (and twin queries) each client
	// sends per pass.
	resubmits = 4
	// cacheEntries holds fewer results than a pass simulates, so the
	// cache spills and re-submissions of early grids read from disk.
	cacheEntries = 24
)

type request struct {
	kind  string // "grid", "resubmit", "twin" or "load"
	cells []harness.CellSpec
}

func newServiceWhatIf(seed int64) (workload, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	golden, err := readGolden("scripts/golden.sha256")
	if err != nil {
		return nil, err
	}
	if golden["loadjson"] == "" {
		return nil, errors.New("golden digests: loadjson missing")
	}
	return &serviceWhatIf{pins: pins, golden: golden, wl: harness.QuickWorkloads(), plans: plan(seed, serviceClients)}, nil
}

// plan draws each client's request sequence for a pass from the seed.
// A pass simulates every cell of both applications' SearchGrid exactly
// once, as new grids, so the seed changes which client sends each grid
// and the order of requests but not the work. Each client sends half of
// each application's grids, re-submissions of its own earlier grids,
// twin queries and one load job, in a seeded order.
func plan(seed int64, clients int) [][]request {
	rng := rand.New(rand.NewSource(seed))
	perClient := make([][]request, clients)
	for _, app := range serviceApps {
		// SearchGrid's last two axes (FIFO threshold, DU queue depth)
		// vary fastest, so each run of gridCells cells sweeps those two
		// knobs under one syscall, interrupt and combining setting.
		cells := harness.SearchGrid(app, harness.DefaultVariant(app), 16)
		var grids []request
		for i := 0; i+gridCells <= len(cells); i += gridCells {
			grids = append(grids, request{kind: "grid", cells: cells[i : i+gridCells]})
		}
		rng.Shuffle(len(grids), func(i, j int) { grids[i], grids[j] = grids[j], grids[i] })
		for g, r := range grids {
			perClient[g%clients] = append(perClient[g%clients], r)
		}
	}
	plans := make([][]request, clients)
	for c, grids := range perClient {
		rng.Shuffle(len(grids), func(i, j int) { grids[i], grids[j] = grids[j], grids[i] })
		kinds := []string{"load"}
		for range grids {
			kinds = append(kinds, "grid")
		}
		for k := 0; k < resubmits; k++ {
			kinds = append(kinds, "resubmit", "twin")
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		// A re-submission needs an earlier grid of its client.
		firstGrid, firstResub := -1, -1
		for i := len(kinds) - 1; i >= 0; i-- {
			switch kinds[i] {
			case "grid":
				firstGrid = i
			case "resubmit":
				firstResub = i
			}
		}
		if firstResub < firstGrid {
			kinds[firstResub], kinds[firstGrid] = kinds[firstGrid], kinds[firstResub]
		}
		sent := 0
		for _, k := range kinds {
			switch k {
			case "grid":
				plans[c] = append(plans[c], grids[sent])
				sent++
			case "resubmit":
				plans[c] = append(plans[c], request{kind: k, cells: grids[rng.Intn(sent)].cells})
			case "twin":
				app := serviceApps[rng.Intn(len(serviceApps))]
				grid := harness.SearchGrid(app, harness.DefaultVariant(app), 16)
				var cells []harness.CellSpec
				for _, i := range rng.Perm(len(grid))[:twinCells] {
					cells = append(cells, grid[i])
				}
				plans[c] = append(plans[c], request{kind: k, cells: cells})
			case "load":
				plans[c] = append(plans[c], request{kind: k})
			}
		}
	}
	return plans
}

func (s *serviceWhatIf) setup(l *ledger) error {
	s.dir = filepath.Join(outDir, fmt.Sprintf("spill-%d", os.Getpid()))
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	cache, err := resultcache.New(cacheEntries, s.dir)
	if err != nil {
		return err
	}
	s.srv = server.New(server.Config{Nodes: 16, SimWorkers: 1, JobWorkers: min(serviceClients, runtime.NumCPU()), Cache: cache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}}

	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	// The warm-up job is outside every grid, so it leaves the pass's
	// cache traffic unchanged.
	l.ops(1)
	if err := s.job(l, request{kind: "grid", cells: []harness.CellSpec{warmCell}}, "warm-up", false); err != nil {
		return err
	}
	s.metrics0, err = s.scrape()
	return err
}

func (s *serviceWhatIf) teardown() {
	if s.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	s.srv.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
	s.hs = nil
}

func (s *serviceWhatIf) pass(l *ledger, traced bool) error {
	errs := make([]error, len(s.plans))
	forEach(len(s.plans), len(s.plans), func(c int) {
		for i, r := range s.plans[c] {
			l.ops(1)
			var err error
			if r.kind == "twin" {
				err = s.twin(l, r)
			} else {
				err = s.job(l, r, fmt.Sprintf("client%d#%d", c, i), !traced)
			}
			if err != nil {
				errs[c] = err
				return
			}
		}
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	m, err := s.scrape()
	if err != nil {
		return err
	}
	if traced {
		return nil
	}
	d := func(name string) float64 { return m[name] - s.metrics0[name] }
	hits := d("shrimpd_cache_hits_total") + d("shrimpd_cache_disk_hits_total")
	l.mu.Lock()
	l.cacheHits += int64(hits)
	l.cacheLookups += int64(hits + d("shrimpd_cache_misses_total"))
	l.spills += int64(d("shrimpd_cache_spills_total"))
	l.queueWaitNs += d("shrimpd_job_queue_wait_ns_sum")
	l.queueWaitN += d("shrimpd_job_queue_wait_ns_count")
	l.mu.Unlock()
	return nil
}

// post sends a JSON body and decodes a JSON reply; a non-2xx answer is a
// failed operation.
func (s *serviceWhatIf) post(path string, body, reply any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(reply)
}

// twin sends one twin query and checks every answer against the
// predictor the server uses.
func (s *serviceWhatIf) twin(l *ledger, r request) error {
	var rows []struct {
		Index  int   `json:"index"`
		TwinNs int64 `json:"twin_ns"`
	}
	t0 := time.Now()
	code, err := s.post("/v1/twin", map[string]any{"cells": r.cells, "quick": true}, &rows)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	l.spans.add("twin", r.cells[0].App, -1, t0, t1)
	if code/100 != 2 {
		l.fail(1, fmt.Sprintf("twin: HTTP %d", code), false)
		return nil
	}
	l.mu.Lock()
	l.twinMs = append(l.twinMs, ms(t1.Sub(t0)))
	l.mu.Unlock()
	tp := harness.NewPredictor(&s.wl)
	ok := len(rows) == len(r.cells)
	for i := 0; ok && i < len(rows); i++ {
		want, err := tp.PredictCell(r.cells[i])
		ok = err == nil && rows[i].Index == i && rows[i].TwinNs == int64(want)
	}
	if !ok {
		l.fail(1, "twin answer differs from the predictor", false)
	}
	return nil
}

// job submits one job, reads its whole result stream and checks it.
// Counted jobs (plain passes) feed the ledger's job, cell and counter
// figures; key names the job across passes.
func (s *serviceWhatIf) job(l *ledger, r request, key string, counted bool) error {
	body := map[string]any{"quick": true}
	if r.kind == "load" {
		body["experiment"] = "load"
	} else {
		body["cells"] = r.cells
		body["share_prefix"] = true
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	t0 := time.Now()
	code, err := s.post("/v1/jobs", body, &st)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if code/100 != 2 {
		l.fail(1, fmt.Sprintf("submit %s: HTTP %d", r.kind, code), false)
		return nil
	}
	resp, err := s.client.Get(s.base + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	dur := t1.Sub(t0)
	label := r.kind
	if len(r.cells) > 0 {
		label += " " + r.cells[0].App
	}
	l.spans.add("job", key+" "+label, -1, t0, t1)

	// The stream ends with its last row, a moment before the runner
	// marks the job terminal.
	for st.State == "queued" || st.State == "running" {
		status, err := s.client.Get(s.base + "/v1/jobs/" + st.ID)
		if err != nil {
			return fmt.Errorf("status: %w", err)
		}
		err = json.NewDecoder(status.Body).Decode(&st)
		status.Body.Close()
		if err != nil {
			return fmt.Errorf("status: %w", err)
		}
		if st.State == "queued" || st.State == "running" {
			time.Sleep(time.Millisecond)
		}
	}
	switch {
	case resp.StatusCode/100 != 2:
		l.fail(1, fmt.Sprintf("results %s: HTTP %d", r.kind, resp.StatusCode), false)
		return nil
	case st.State != "done":
		l.fail(1, fmt.Sprintf("%s job ended %s", r.kind, st.State), false)
		return nil
	}

	var requests int64
	var ok bool
	if r.kind == "load" {
		ok = sha(stream) == s.golden["loadjson"]
		sc := bufio.NewScanner(bytes.NewReader(stream))
		for sc.Scan() {
			var rec struct{ Row harness.LoadRow }
			if json.Unmarshal(sc.Bytes(), &rec) == nil {
				requests += rec.Row.Requests
			}
		}
	} else {
		ok = s.checkRows(l, stream, r.cells, counted && r.kind == "grid")
	}
	if !ok {
		l.fail(1, fmt.Sprintf("%s job stream differs from its pinned digests", r.kind), false)
	}
	if !counted {
		return nil
	}
	l.job(ms(dur))
	l.mu.Lock()
	l.streamBytes += int64(len(stream))
	l.requests += requests
	l.mu.Unlock()
	if r.kind == "grid" {
		// Cells of one share_prefix grid run as one unit; a cell's host
		// time is its share of the job.
		per := ms(dur) / float64(len(r.cells))
		for _, c := range r.cells {
			l.cell(cellLabel(c), per)
		}
	}
	return nil
}

// checkRows verifies a cell job's NDJSON: one row per cell in index
// order, each Result matching its pinned digest. With count set it adds
// the simulated cells' work counters to the ledger.
func (s *serviceWhatIf) checkRows(l *ledger, stream []byte, cells []harness.CellSpec, count bool) bool {
	lines := strings.Split(strings.TrimSuffix(string(stream), "\n"), "\n")
	if len(lines) != len(cells) {
		return false
	}
	for i, line := range lines {
		var row struct {
			Index  int            `json:"index"`
			Result harness.Result `json:"result"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil || row.Index != i {
			return false
		}
		if resultDigest(row.Result) != s.pins[cellKey(cells[i])] {
			return false
		}
		if count {
			l.addCounters(&row.Result.Counters)
		}
	}
	return true
}

// scrape reads shrimpd's /metrics into name -> value (samples with
// labels are skipped).
func (s *serviceWhatIf) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}
