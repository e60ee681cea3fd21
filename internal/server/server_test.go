package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shrimp/internal/harness"
	"shrimp/internal/resultcache"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, req JobRequest) jobStatus {
	t.Helper()
	st, code := trySubmit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	return st
}

func trySubmit(t *testing.T, ts *httptest.Server, req JobRequest) (jobStatus, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getStatus(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitFor polls a job until cond holds (or the deadline kills the test).
func waitFor(t *testing.T, ts *httptest.Server, id string, what string, cond func(jobStatus) bool) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if cond(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s: timed out waiting for %s", id, what)
	return jobStatus{}
}

func streamResults(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func quickCells() []harness.CellSpec {
	return []harness.CellSpec{
		{App: "radix-vmmc", Nodes: 2},
		{App: "radix-vmmc", Nodes: 4},
		{App: "ocean-nx", Nodes: 2},
	}
}

// TestCellJobByteIdentity is the headline e2e check: the NDJSON a job
// streams over the API is byte-identical to what a direct
// harness.RunCells of the same compiled cells produces, encoded the
// same way. The daemon adds serving, not noise.
func TestCellJobByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{SimWorkers: 2})
	cells := quickCells()

	st := submit(t, ts, JobRequest{Cells: cells, Quick: true})
	waitFor(t, ts, st.ID, "done", func(s jobStatus) bool { return s.State == StateDone })
	got := streamResults(t, ts, st.ID)

	// The reference: compile the same specs and run them directly.
	wl := harness.QuickWorkloads()
	specs := make([]harness.Spec, len(cells))
	for i, c := range cells {
		s, err := c.Compile()
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = s
	}
	results := harness.RunCells(nil, specs, 2, &wl)
	var want bytes.Buffer
	for i, r := range results {
		line, err := json.Marshal(cellRow{Index: i, Cell: cells[i], Result: r})
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
		want.WriteByte('\n')
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("API results differ from direct RunCells:\napi:    %s\ndirect: %s", got, want.Bytes())
	}

	final := waitFor(t, ts, st.ID, "counts", func(s jobStatus) bool { return s.CellsDone == len(cells) })
	if final.CellsTotal != len(cells) {
		t.Fatalf("cells_total = %d, want %d", final.CellsTotal, len(cells))
	}
}

// TestExperimentJobMatchesEmitJSON submits a whole registered
// experiment and checks the stream equals harness.EmitJSON of the
// registry's own Run — the same bytes `shrimpbench -json` prints.
func TestExperimentJobMatchesEmitJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{SimWorkers: 2})

	st := submit(t, ts, JobRequest{Experiment: "latency"})
	waitFor(t, ts, st.ID, "done", func(s jobStatus) bool { return s.State == StateDone })
	got := streamResults(t, ts, st.ID)

	e, ok := harness.FindExperiment("latency")
	if !ok {
		t.Fatal("latency experiment missing from registry")
	}
	cfg := harness.DefaultExperimentConfig()
	cfg.Workers = 2
	var want bytes.Buffer
	if err := harness.EmitJSON(&want, e.Name, e.Run(cfg)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("experiment stream differs from EmitJSON:\napi:  %s\nwant: %s", got, want.Bytes())
	}
}

// TestRepeatJobServedFromCache runs the same job twice against a
// cache-backed server: the repeat must be all cache hits — no second
// simulation — and the hit counter must be visible in /metrics.
func TestRepeatJobServedFromCache(t *testing.T) {
	cache, err := resultcache.New(64, "")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{SimWorkers: 2, Cache: cache})
	cells := quickCells()
	req := JobRequest{Cells: cells, Quick: true}

	first := submit(t, ts, req)
	waitFor(t, ts, first.ID, "done", func(s jobStatus) bool { return s.State == StateDone })
	firstOut := streamResults(t, ts, first.ID)
	putsAfterFirst := cache.Snapshot().Puts

	second := submit(t, ts, req)
	waitFor(t, ts, second.ID, "done", func(s jobStatus) bool { return s.State == StateDone })
	secondOut := streamResults(t, ts, second.ID)

	if !bytes.Equal(firstOut, secondOut) {
		t.Fatal("cached rerun produced different bytes")
	}
	st := cache.Snapshot()
	if st.Hits < int64(len(cells)) {
		t.Fatalf("expected >= %d cache hits, got %+v", len(cells), st)
	}
	if st.Puts != putsAfterFirst {
		t.Fatalf("repeat job re-simulated: puts %d -> %d", putsAfterFirst, st.Puts)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hits int64 = -1
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "shrimpd_cache_hits_total ") {
			fmt.Sscanf(line, "shrimpd_cache_hits_total %d", &hits)
		}
	}
	if hits < int64(len(cells)) {
		t.Fatalf("metrics report %d cache hits, want >= %d", hits, len(cells))
	}
}

// manyQuickCells builds a grid long enough to still be in flight while
// the test pokes at the queue, but cancelable within a cell or two.
func manyQuickCells(n int) []harness.CellSpec {
	cells := make([]harness.CellSpec, n)
	for i := range cells {
		cells[i] = harness.CellSpec{App: "radix-vmmc", Nodes: 2 + 2*(i%2)}
	}
	return cells
}

// TestAdmissionControl fills the queue behind a running job and checks
// the overflow submission is refused with 429 + Retry-After rather
// than queued without bound.
func TestAdmissionControl(t *testing.T) {
	_, ts := newTestServer(t, Config{SimWorkers: 1, JobWorkers: 1, QueueDepth: 1})

	running := submit(t, ts, JobRequest{Cells: manyQuickCells(400), Quick: true})
	waitFor(t, ts, running.ID, "running", func(s jobStatus) bool { return s.State == StateRunning })

	queued := submit(t, ts, JobRequest{Cells: quickCells(), Quick: true}) // fills the queue

	body, _ := json.Marshal(JobRequest{Cells: quickCells(), Quick: true})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carried no Retry-After")
	}

	// Unwind: cancel both jobs and wait for terminal states.
	for _, id := range []string{running.ID, queued.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		waitFor(t, ts, id, "terminal", func(s jobStatus) bool { return s.State.terminal() })
	}
}

// TestCancelMidJob cancels a long job partway through and checks it
// lands in canceled with partial progress, and that its result stream
// terminates with only complete, parseable rows.
func TestCancelMidJob(t *testing.T) {
	_, ts := newTestServer(t, Config{SimWorkers: 1, JobWorkers: 1})

	st := submit(t, ts, JobRequest{Cells: manyQuickCells(400), Quick: true})
	waitFor(t, ts, st.ID, "progress", func(s jobStatus) bool { return s.CellsDone >= 1 })

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	final := waitFor(t, ts, st.ID, "canceled", func(s jobStatus) bool { return s.State.terminal() })
	if final.State != StateCanceled {
		t.Fatalf("state %q, want canceled", final.State)
	}
	if final.CellsDone == 0 || final.CellsDone >= 400 {
		t.Fatalf("cells_done = %d, want partial progress", final.CellsDone)
	}

	out := streamResults(t, ts, st.ID) // must terminate, not hang
	for _, line := range bytes.Split(bytes.TrimRight(out, "\n"), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var row cellRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("canceled job streamed a torn row %q: %v", line, err)
		}
	}
}

// TestSubmitValidation checks malformed requests are refused up front.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// knobCell is a well-formed cell carrying one out-of-domain knob,
	// which would otherwise deadlock or stall the simulated machine.
	knobCell := func(k harness.Knobs) JobRequest {
		return JobRequest{Cells: []harness.CellSpec{{App: "radix-vmmc", Nodes: 4, Knobs: k}}}
	}
	intp := func(v int) *int { return &v }
	for _, tc := range []struct {
		name string
		req  JobRequest
	}{
		{"empty", JobRequest{}},
		{"both", JobRequest{Cells: quickCells(), Experiment: "table1"}},
		{"unknown experiment", JobRequest{Experiment: "nonesuch"}},
		{"bad app", JobRequest{Cells: []harness.CellSpec{{App: "nonesuch", Nodes: 4}}}},
		{"bad nodes", JobRequest{Cells: []harness.CellSpec{{App: "radix-vmmc", Nodes: -1}}}},
		{"du_queue_depth 0", knobCell(harness.Knobs{DUQueueDepth: intp(0)})},
		{"du_queue_depth -1", knobCell(harness.Knobs{DUQueueDepth: intp(-1)})},
		{"out_fifo_bytes 0", knobCell(harness.Knobs{OutFIFOBytes: intp(0)})},
		{"fifo_threshold_bytes -1", knobCell(harness.Knobs{FIFOThresholdBytes: intp(-1)})},
		{"fifo_low_water_bytes -1", knobCell(harness.Knobs{FIFOLowWaterBytes: intp(-1)})},
	} {
		if _, code := trySubmit(t, ts, tc.req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
}

// TestListAndRegistry checks the listing endpoints: jobs come back
// sorted by id and the experiment registry round-trips.
func TestListAndRegistry(t *testing.T) {
	_, ts := newTestServer(t, Config{SimWorkers: 1})
	a := submit(t, ts, JobRequest{Cells: quickCells()[:1], Quick: true})
	b := submit(t, ts, JobRequest{Cells: quickCells()[:1], Quick: true})

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 2 || list[0].ID != a.ID || list[1].ID != b.ID {
		t.Fatalf("job listing %+v, want [%s %s] in order", list, a.ID, b.ID)
	}

	resp, err = http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var exps []struct{ Name, Desc string }
	if err := json.NewDecoder(resp.Body).Decode(&exps); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(exps) != len(harness.Experiments()) {
		t.Fatalf("experiments endpoint lists %d, registry has %d", len(exps), len(harness.Experiments()))
	}
	for _, id := range []string{a.ID, b.ID} {
		waitFor(t, ts, id, "terminal", func(s jobStatus) bool { return s.State.terminal() })
	}
}

// TestDrain checks graceful shutdown: intake flips to 503 and a
// running job is canceled rather than abandoned.
func TestDrain(t *testing.T) {
	s := New(Config{SimWorkers: 1, JobWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := submit(t, ts, JobRequest{Cells: manyQuickCells(400), Quick: true})
	waitFor(t, ts, st.ID, "running", func(s jobStatus) bool { return s.State == StateRunning })

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if _, code := trySubmit(t, ts, JobRequest{Cells: quickCells()}); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", resp.StatusCode)
	}
	if got := getStatus(t, ts, st.ID); got.State != StateCanceled {
		t.Fatalf("job after drain: state %q, want canceled", got.State)
	}
}
