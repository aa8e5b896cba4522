.PHONY: check build test race bench

check: ## tier-1: build + vet + race-detector test suite
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

bench: ## the repo's benchmark (BENCHMARK.json, benchmark/README.md): all four workloads, or ARGS="--workload suite_par --seconds 15 --trace 0"
	bash benchmark/run.sh $(ARGS)

bench-all:
	go test -bench=. -benchmem ./...
