package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"shrimp/internal/harness"
)

// digests.txt pins the Result of every cell the scale-64 and
// service-whatif workloads (and the warm-up) simulate: one
// "<sha256 of the Result's JSON> <cell spec JSON>" line per cell. It was
// written once by `perfbench --pin` at the commit that introduced the
// benchmark. A mismatch is a behaviour change of the simulator, never a
// reason to re-pin.
//
//go:embed digests.txt
var digestsFile string

// loadPins parses the pinned digests, keyed by cell spec JSON.
func loadPins() (map[string]string, error) {
	pins := map[string]string{}
	for i, line := range strings.Split(strings.TrimSpace(digestsFile), "\n") {
		sum, cell, ok := strings.Cut(line, " ")
		if !ok || len(sum) != 64 {
			return nil, fmt.Errorf("digests.txt line %d: want \"<sha256> <cell>\"", i+1)
		}
		pins[cell] = sum
	}
	return pins, nil
}

// readGolden reads the repository's golden output digests (kind -> sha256).
func readGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if kind, sum, ok := strings.Cut(sc.Text(), " "); ok {
			golden[kind] = sum
		}
	}
	return golden, sc.Err()
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// cellKey is a cell's identity in digests.txt.
func cellKey(c harness.CellSpec) string {
	b, err := json.Marshal(c)
	if err != nil {
		panic(err) // CellSpec is plain data
	}
	return string(b)
}

// resultDigest hashes a Result's JSON: every simulated statistic it
// carries, the bytes shrimpd streams for it.
func resultDigest(r harness.Result) string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // Result is plain integers
	}
	return sha(b)
}

// aliases maps each application to its lowercase CLI name.
var aliases = func() map[harness.App]string {
	m := map[harness.App]string{}
	for _, name := range harness.AppAliases() {
		a, err := harness.ParseApp(name)
		if err != nil {
			panic(err)
		}
		m[a] = name
	}
	return m
}()

// cellLabel names a cell's application and update variant,
// "radix-vmmc.au": the key of the harness.cell_ms.* metrics.
func cellLabel(c harness.CellSpec) string {
	s, err := c.Compile()
	if err != nil {
		return "invalid"
	}
	return aliases[s.App] + "." + strings.ToLower(s.Variant.String())
}

// cellLabels lists every application x variant label, sorted.
func cellLabels() []string {
	var out []string
	for _, a := range harness.AllApps() {
		out = append(out, aliases[a]+".au", aliases[a]+".du")
	}
	sort.Strings(out)
	return out
}

// warmCell is the cell every setup runs once before a pass: small, and
// outside every workload's grid.
var warmCell = harness.CellSpec{App: "radix-vmmc", Nodes: 4, Variant: "AU"}

// protect runs fn and turns a panic into an error carrying its value.
func protect(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	fn()
	return nil
}

// forEach runs fn(i) for i in [0, n) on a pool of workers, handing out
// indexes in order, and returns when all are done.
func forEach(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < min(workers, n); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// printPins simulates every pinned cell cold and writes digests.txt.
func printPins(w io.Writer) error {
	wl := harness.QuickWorkloads()
	cells := append([]harness.CellSpec{warmCell}, scaleCells()...)
	for _, app := range serviceApps {
		cells = append(cells, harness.SearchGrid(app, harness.DefaultVariant(app), 16)...)
	}
	lines := make([]string, len(cells))
	forEach(len(cells), runtime.NumCPU(), func(i int) {
		spec, err := cells[i].Compile()
		if err != nil {
			panic(err)
		}
		var r harness.Result
		if err := protect(func() { r = harness.Run(spec, &wl) }); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: not pinned, %s fails: %v\n", cellKey(cells[i]), err)
			return
		}
		lines[i] = resultDigest(r) + " " + cellKey(cells[i])
	})
	for _, l := range lines {
		if l != "" {
			if _, err := fmt.Fprintln(w, l); err != nil {
				return err
			}
		}
	}
	return nil
}
