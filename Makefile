# Convenience wrappers around dune.  `make check` is the PR verify: build,
# test, and smoke the multi-core evaluation path (--jobs 2).
.PHONY: all test check fuzz triage chaos obs ledger-compare

all:
	dune build

test:
	dune runtest

# The repository benchmark, this checkout against an older revision:
#   make ledger-compare OLD=<rev>
# exports OLD into a fresh directory under $TMPDIR (default /tmp) and
# builds it there, then follows ledger/README.md's recipe — ten pairs at
# seeds 5000-5009, each `ledger.exe run` covering all three workloads,
# alternating which side runs first — and ends with `ledger.exe compare`,
# which exits non-zero on a regression.  About half an hour.
ledger-compare:
	@git rev-parse --verify --quiet "$(OLD)^{commit}" > /dev/null || \
	  { echo "usage: make ledger-compare OLD=<rev>" >&2; exit 2; }
	dune build ./ledger/ledger.exe
	set -e; new=$$(pwd); old=$$(mktemp -d -t cet-ledger-compare.XXXXXX); \
	git archive "$(OLD)" | tar -x -C $$old; \
	(cd $$old && dune build --root . ./ledger/ledger.exe); \
	for i in 0 1 2 3 4 5 6 7 8 9; do \
	  seed=$$((5000 + i)); \
	  if [ $$((i % 2)) = 0 ]; then order="old new"; else order="new old"; fi; \
	  for side in $$order; do \
	    if [ $$side = old ]; then root=$$old; else root=$$new; fi; \
	    (cd $$root && ./_build/default/ledger/ledger.exe run --seed $$seed \
	      --out $$old/ledger-$$side.jsonl); \
	  done; \
	done; \
	echo "results: $$old/ledger-old.jsonl $$old/ledger-new.jsonl"; \
	./_build/default/ledger/ledger.exe compare $$old/ledger-old.jsonl $$old/ledger-new.jsonl

check:
	dune build @check

# Full deterministic mutation-fuzz of the robust analysis path (a bounded
# ~200-mutant smoke of the same engine runs as part of `make check`).
fuzz:
	dune exec bin/cetfuzz.exe -- --count 2000 --seed 2022

# Chaos soak: a ~200-binary seeded run with scheduler fault injection
# (worker stalls, item delays, transient dispatch faults) must produce
# tables and per-binary profile rows byte-identical to the calm run — the
# scheduler invariant at soak scale (a smaller smoke of the same diff runs
# as part of `make check`).  The fuzzer soaks under the same chaos seed.
CHAOS_SEED ?= 2022
chaos:
	dune build bin/evaluate.exe bin/cetfuzz.exe
	dune exec --no-build bin/evaluate.exe -- all --scale 0.05 --jobs 2 \
	  --no-timing --profile-out /tmp/cet-chaos-calm.jsonl \
	  > /tmp/cet-chaos-calm.txt
	dune exec --no-build bin/evaluate.exe -- all --scale 0.05 --jobs 4 \
	  --no-timing --chaos $(CHAOS_SEED) \
	  --profile-out /tmp/cet-chaos-stormy.jsonl > /tmp/cet-chaos-stormy.txt
	cmp /tmp/cet-chaos-calm.txt /tmp/cet-chaos-stormy.txt
	cmp /tmp/cet-chaos-calm.jsonl /tmp/cet-chaos-stormy.jsonl
	dune exec --no-build bin/cetfuzz.exe -- --count 200 --seed $(CHAOS_SEED) \
	  > /tmp/cet-chaos-fuzz-calm.txt
	dune exec --no-build bin/cetfuzz.exe -- --count 200 --seed $(CHAOS_SEED) \
	  --jobs 4 --chaos $(CHAOS_SEED) > /tmp/cet-chaos-fuzz-stormy.txt
	cmp /tmp/cet-chaos-fuzz-calm.txt /tmp/cet-chaos-fuzz-stormy.txt
	@echo "chaos soak: tables, profiles and fuzz summary byte-identical"

# Error forensics: the full tables plus the FP/FN root-cause triage table
# (a smaller seeded smoke of the same path runs as part of `make check`).
triage:
	dune exec bin/evaluate.exe -- all --triage --scale 0.05 --no-timing

# Cross-run analysis: two manifested runs under different schedulers, then
# the cetstat report / diff / anomalies suite over them.  The diff must be
# clean — same corpus, same verdicts, joined 100% by content digest — and
# byte-identical whichever scheduler produced either side (a smaller smoke
# of the same invariant runs as part of `make check`).
obs:
	dune build bin/evaluate.exe bin/cetstat.exe
	dune exec --no-build bin/evaluate.exe -- all --scale 0.05 --jobs 2 \
	  --no-timing --manifest-out /tmp/cet-obs-a.manifest.jsonl \
	  --profile-out /tmp/cet-obs-a.prof.jsonl \
	  --trace-out /tmp/cet-obs-a.trace.jsonl > /dev/null
	dune exec --no-build bin/evaluate.exe -- all --scale 0.05 --jobs 4 \
	  --no-timing --chaos $(CHAOS_SEED) \
	  --manifest-out /tmp/cet-obs-b.manifest.jsonl \
	  --profile-out /tmp/cet-obs-b.prof.jsonl > /dev/null
	dune exec --no-build bin/cetstat.exe -- report /tmp/cet-obs-a.manifest.jsonl
	dune exec --no-build bin/cetstat.exe -- diff /tmp/cet-obs-a.manifest.jsonl \
	  /tmp/cet-obs-b.manifest.jsonl
	dune exec --no-build bin/cetstat.exe -- anomalies /tmp/cet-obs-a.manifest.jsonl
