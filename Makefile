# gbcr — Group-based Coordinated Checkpointing for MPI (ICPP 2007 reproduction)

GO ?= go

.PHONY: all check build test vet lint lint-json race bench bench-json figures figures-txt examples cover clean

all: check

# Full gate: compile, vet, the project analyzers, tests, and the race
# detector over the concurrent experiment Runner.
check: build vet lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project analyzers (simdeterminism, nopanic, guardedby, lockorder,
# shardconfine, allocfree, obscomplete, errpropagation, hotpath).
# gbcrlint speaks the vet-tool protocol, so the same binary also works as
# `go vet -vettool=$$(which gbcrlint) ./...`. Exit status: 0 clean,
# 1 operational error, 2 findings.
lint:
	$(GO) build -o bin/gbcrlint ./cmd/gbcrlint
	./bin/gbcrlint ./...

# Same suite, but findings land in lint-findings.json as a JSON array
# (always valid JSON, [] when clean) for CI to archive; the exit contract
# is unchanged, so this still gates.
lint-json:
	$(GO) build -o bin/gbcrlint ./cmd/gbcrlint
	./bin/gbcrlint -json ./... > lint-findings.json

test:
	$(GO) test ./...

# The figure sweeps fan out on the Runner's worker pool; run the whole tree
# under the race detector. The figures package alone runs for several
# minutes under -race on small machines, so give the suite more than the
# default 10-minute per-package budget.
race:
	$(GO) test -race -timeout 30m ./...

# Regenerate every paper figure once as benchmarks.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# Run every benchmark once and capture the results — wall ns/op plus the
# custom sim-time metrics — as machine-readable JSON. The committed results
# seed each metric's "prev" field, so the file carries its own trajectory.
bench-json:
	$(GO) test -bench=. -benchmem -benchtime=1x ./... | $(GO) run ./cmd/benchjson -prev BENCH_results.json -o BENCH_results.json

# Print every figure/ablation/extension as text tables.
figures:
	$(GO) run ./cmd/figures

# Refresh the committed artifact. A phony target (not a file rule): the
# tables depend on the whole simulation stack, so "already up to date"
# would always be wrong.
figures-txt:
	$(GO) run ./cmd/figures > docs/figures.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/placement
	$(GO) run ./examples/restart
	$(GO) run ./examples/hpl
	$(GO) run ./examples/motifminer

cover:
	$(GO) test -cover ./internal/...

clean:
	$(GO) clean ./...
	rm -rf bin
