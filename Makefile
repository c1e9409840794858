.PHONY: all check faults test bench bench-json telemetry torture fuzz \
	fuzz-replay redteam redteam-replay fleet loc clean

all:
	dune build

# tier-1 gate: full build + test suite with warnings as errors
check:
	dune build --profile ci @all
	dune runtest --profile ci

# the fault-injection differential-oracle sweep alone
faults:
	dune exec --profile ci test/test_faults.exe

test:
	dune runtest

bench:
	dune exec bench/main.exe

# machine-readable benchmark report: the incremental-linking scaling
# curve, install-throughput, telemetry-overhead, fuzzing-throughput,
# fleet-supervision, sharded-install, dispatch-engine and
# attack-surface numbers, written to the schema-versioned file
# Benchjson.output_file (BENCH_10.json today)
bench-json:
	dune exec bench/main.exe -- json

# telemetry overhead: torture check throughput with the instrumentation
# enabled vs disabled (budget: ratio >= 0.95), plus the un-amortized
# single-domain per-check price
telemetry:
	dune exec bench/main.exe -- telemetry

# sustained multi-domain torture: several large scenarios with updater
# kills and loader storms, every outcome validated by the history oracle
torture:
	dune exec --profile ci bin/mcfi_cli.exe -- torture --long

# property-based fuzzing: random MiniC programs through the full
# pipeline against the differential oracle bank; failures shrink into
# replayable files under corpus/
fuzz:
	dune exec bin/mcfi_cli.exe -- fuzz --seed 1 --iters 2000

# re-run every committed counterexample; fails on any regression
# (a corpus file failing a *different* oracle than it recorded).
# cex_*.c only: chain_*.c are redteam artifacts with their own replayer
fuzz-replay:
	@files=$$(ls corpus/cex_*.c 2>/dev/null); \
	if [ -z "$$files" ]; then echo "corpus/ has no counterexamples"; \
	else dune exec bin/mcfi_cli.exe -- fuzz \
	  $$(for f in $$files; do echo --replay $$f; done); fi

# adversarial in-policy attack synthesis over generated programs; a
# found chain shrinks into a replayable corpus/chain_*.c artifact and
# exits nonzero (a clean run over this codebase should find nothing)
redteam:
	dune exec bin/mcfi_cli.exe -- redteam --seed 1 --iters 50

# re-search every committed chain artifact's embedded sources; fails
# if a chain vanished (policy accidentally tightened: regenerate it)
# or, worse, if one stopped confirming
redteam-replay:
	@files=$$(ls corpus/chain_*.c 2>/dev/null); \
	if [ -z "$$files" ]; then echo "corpus/ has no chain artifacts"; \
	else dune exec bin/mcfi_cli.exe -- redteam \
	  $$(for f in $$files; do echo --replay $$f; done); fi

# tenant-fleet supervision under seeded chaos: 16 tenants sharing the
# table infrastructure, a scripted mid-install kill and reader wedge
# plus random slowdowns, an install storm every 10 ticks; exits nonzero
# on any oracle anomaly, unrecovered tenant, or wedged quiescence
fleet:
	dune exec --profile ci bin/mcfi_cli.exe -- fleet --smoke --seed 11

# code lines per lib/ library and for bin/: blanks and comments (nested
# ones included) left out, string literals counted as code
loc:
	@python3 tools/loc.py

clean:
	dune clean
