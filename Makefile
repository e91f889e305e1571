SMOKE_TRACE := /tmp/quill-smoke-trace.json

.PHONY: all build test lint check bench-identity clean

all: build

build:
	dune build

test:
	dune runtest

# quill-check determinism lint: exits 1 on any unwaived finding.
lint:
	dune exec bin/quill_lint.exe

# Full verification: build, test suite, determinism lint, then a CLI
# smoke run that exports a trace, validates the Chrome trace-event JSON
# actually parses, and replays the planned-order conflict check.
check: build test lint
	dune exec bin/quill_cli.exe -- run --engine quecc --workload ycsb \
	  --txns 2048 --batch 512 --trace $(SMOKE_TRACE) --phase-table \
	  --pipeline --steal --check-conflicts
	python3 -c "import json; d = json.load(open('$(SMOKE_TRACE)')); \
	  assert d['traceEvents'], 'empty trace'; \
	  print('trace ok: %d events' % len(d['traceEvents']))"

# Virtual-time identity gate for host-side changes: regenerate each
# committed BENCH_<exp>.json at scale 1 into a temp dir and compare it byte
# for byte with the committed file.
BENCH_IDENTITY := pipeline skew durability cdc

bench-identity:
	dune build bench/main.exe
	@tmp=$$(mktemp -d); status=0; \
	for e in $(BENCH_IDENTITY); do \
	  ./_build/default/bench/main.exe $$e 1 --json $$tmp/BENCH_$$e.json \
	    > $$tmp/$$e.out || status=1; \
	  if cmp BENCH_$$e.json $$tmp/BENCH_$$e.json; then \
	    echo "bench-identity: BENCH_$$e.json unchanged"; \
	  else status=1; fi; \
	done; \
	rm -rf $$tmp; exit $$status

clean:
	dune clean
