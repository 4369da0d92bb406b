# Standard entry points; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short bench experiments figures cover fuzz clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the full experiment report (EXPERIMENTS.md's source data).
experiments:
	$(GO) run ./cmd/experiments -scale 2 -seeds 3 -parallel | tee experiments_report.txt

# Render the SVG reproductions of the paper's figures into figs/.
figures:
	$(GO) run ./cmd/figures -out figs

cover:
	$(GO) test -cover ./...

# Brief fuzzing session over the input parsers (problems, networks,
# checkpoints, fault specs, tenant tables), the levelizer, the path-count
# table, the reach matrix, the snapshot restore path and the run summaries (the same targets as CI's
# fuzz-smoke job). Snapshot inputs are kilobytes of JSON and summary
# samples run long; minimising each new one for the default 60s would
# eat the whole session.
fuzz:
	$(GO) test -fuzz FuzzReadProblem -fuzztime 30s ./internal/persist/
	$(GO) test -fuzz FuzzReadNetwork -fuzztime 30s ./internal/persist/
	$(GO) test -fuzz FuzzReadCampaignCheckpoint -fuzztime 30s ./internal/persist/
	$(GO) test -fuzz FuzzLevelize -fuzztime 30s ./internal/topo/
	$(GO) test -fuzz FuzzCountTable -fuzztime 30s ./internal/paths/
	$(GO) test -fuzz FuzzReach -fuzztime 30s ./internal/paths/
	$(GO) test -fuzz FuzzFaultSpec -fuzztime 30s ./internal/faults/
	$(GO) test -fuzz FuzzParseTenants -fuzztime 30s ./internal/service/
	$(GO) test -fuzz FuzzBatchRequest -fuzztime 30s ./internal/service/
	$(GO) test -fuzz FuzzServiceCodec -fuzztime 30s ./internal/service/
	$(GO) test -fuzz FuzzReadServiceSnapshot -fuzztime 30s -fuzzminimizetime 2s ./internal/service/
	$(GO) test -fuzz FuzzSummarize -fuzztime 30s -fuzzminimizetime 2s ./internal/stats/

clean:
	$(GO) clean -testcache
