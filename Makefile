# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GOBIN := $(CURDIR)/bin

.PHONY: all lint test bench-smoke determinism golden calibrate serve-smoke clean

all: lint test

# lint is the single entry point both CI legs run: a gofmt check of
# every Go file outside testdata/ (analyzer fixtures keep their own
# layout), stock vet, then the shrimpvet suite standalone (writing the
# SARIF report CI uploads per PR) and again through cmd/go's vettool
# protocol, which exercises the fact-passing .vetx path and caches per
# package. shrimpvet must link no package outside internal/analysis:
# cmd/go keys cached vet results on the vettool binary's hash, so a
# simulator package linked into it would make every simulator edit
# throw the whole vet cache away.
lint:
	@unformatted=$$(find . \( -name testdata -o -name .bench_build -o -name bin \) -prune \
		-o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	go vet ./...
	@linked=$$(go list -deps ./cmd/shrimpvet | grep '^shrimp/' | \
		grep -v -e '^shrimp/internal/analysis$$' -e '^shrimp/internal/analysis/' -e '^shrimp/cmd/shrimpvet$$'); \
	if [ -n "$$linked" ]; then echo "cmd/shrimpvet links packages outside internal/analysis:"; echo "$$linked"; exit 1; fi
	go build -o $(GOBIN)/shrimpvet ./cmd/shrimpvet
	$(GOBIN)/shrimpvet -sarif $(GOBIN)/shrimpvet.sarif ./...
	go vet -vettool=$(GOBIN)/shrimpvet ./...

test:
	go test -race ./...

# bench-smoke runs one iteration of every micro-benchmark: catches
# benchmarks that panic or rot, with no timing thresholds.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...

# determinism checks that experiment output is byte-identical across
# worker counts, the repo's core invariant.
determinism:
	go build -o $(GOBIN)/shrimpbench ./cmd/shrimpbench
	$(GOBIN)/shrimpbench -exp table1,figure3 -quick -parallel 1 > $(GOBIN)/serial.txt
	$(GOBIN)/shrimpbench -exp table1,figure3 -quick -parallel 4 > $(GOBIN)/parallel.txt
	diff $(GOBIN)/serial.txt $(GOBIN)/parallel.txt
	@echo "determinism: byte-identical across -parallel 1 and -parallel 4"

# golden hashes the full `shrimpbench -exp all -quick` output (text and
# JSON, -parallel 1 and 4) against scripts/golden.sha256: any change to
# the simulation's observable behavior must come with a deliberate
# `scripts/golden_check.sh -update`.
golden:
	BIN=$(GOBIN) bash scripts/golden_check.sh

# calibrate runs every registry experiment through both the analytical
# twin and the simulator, writes the calibration report (text + JSON)
# under bin/ — CI uploads it as a workflow artifact — and fails if any
# experiment's MAPE or rank correlation regresses past the thresholds
# pinned in scripts/calibrate_check.sh.
calibrate:
	BIN=$(GOBIN) bash scripts/calibrate_check.sh

# serve-smoke boots shrimpd and checks the HTTP API end to end: health,
# a 400 for an out-of-domain knob with the daemon still up, NDJSON
# results byte-identical to shrimpbench -json, cache hits on a repeated
# job, and a clean SIGTERM drain.
serve-smoke:
	BIN=$(GOBIN) bash scripts/serve_smoke.sh

clean:
	rm -rf $(GOBIN)
