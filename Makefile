# Tier-1 gate: everything builds, every test suite passes.
#
# The bench-* targets write BENCH_<name>.json at the repo root (quick
# scale by default, or full); their *-smoke variants write under _build/
# so they never overwrite the committed perf trajectory.
.PHONY: all check test env-lint bench bench-profiler bench-profiler-smoke \
	bench-tuner bench-tuner-smoke fault-smoke obs-smoke model-smoke \
	exec-smoke serve-smoke relation-smoke bench-crossval bench-crossval-smoke \
	bench-exec bench-exec-smoke bench-e2e bench-e2e-smoke perfbench-smoke clean

all:
	dune build @all

test:
	dune runtest

# Environment guard: production code (lib/, bin/) reads environment
# variables only in the two observability sinks (ALT_TRACE, ALT_METRICS).
# Any other Sys.getenv there is a runtime switch around the one code path
# and fails the check.
env-lint:
	@if grep -rn --include='*.ml' --include='*.mli' 'Sys.getenv' lib bin \
	    | grep -v -e '^lib/obs/trace.ml:' -e '^lib/obs/metrics.ml:'; then \
	  echo "env-lint: Sys.getenv outside lib/obs/trace.ml and lib/obs/metrics.ml" >&2; \
	  exit 1; \
	fi

# Tier-2 gate: a tuning run under 30% injected measurement faults must
# complete with a finite best latency and a best schedule that lowers
# (the CLI exits non-zero otherwise).
fault-smoke:
	dune exec bin/alt_cli.exe -- tune-op --op c2d --channels 4 \
	  --out-channels 8 --spatial 6 --budget 24 --seed 1 \
	  --fault-rate 0.3 --fault-seed 1 --retries 2

# fast-engine micro-benchmark: times Profiler.run under both engines,
# re-checks the fast==scalar differential oracle, writes
# BENCH_profiler.json (ALT_BENCH_SCALE=smoke|quick|full)
bench-profiler:
	dune exec bench/bench_profiler.exe

bench-profiler-smoke:
	ALT_BENCH_SCALE=smoke dune exec bench/bench_profiler.exe

# search-side micro-benchmark: times GBDT fitting (per-node re-sort vs
# the exact-greedy workspace fitter) and candidate ranking (per-sample vs
# batched prediction), plus a tune_alt wall-clock comparison with the
# lowering/feature memo cache off vs on, writes BENCH_tuner.json
bench-tuner:
	dune exec bench/bench_tuner.exe

bench-tuner-smoke:
	ALT_BENCH_SCALE=smoke dune exec bench/bench_tuner.exe

# Observability gate: a traced+metered tuning run must emit a trace the
# validator accepts (seq/timestamps/span nesting) and a well-formed
# metrics snapshot (DESIGN.md §11); obs-validate exits non-zero otherwise.
obs-smoke:
	dune exec bin/alt_cli.exe -- tune-op --op c2d --channels 4 \
	  --out-channels 8 --spatial 6 --budget 24 --seed 1 --jobs 2 \
	  --trace _build/obs_smoke.trace.jsonl \
	  --metrics _build/obs_smoke.metrics.json
	dune exec bin/alt_cli.exe -- obs-validate \
	  --trace _build/obs_smoke.trace.jsonl \
	  --metrics _build/obs_smoke.metrics.json

# Model-tuning gate: tune-model runs BERT-tiny through the task
# scheduler (every task a Tuner.Step fiber) and must emit a trace and a
# metrics snapshot that obs-validate accepts.
model-smoke:
	dune exec bin/alt_cli.exe -- tune-model --model bt --budget 96 --seed 1 \
	  --jobs 2 --trace _build/model_smoke.trace.jsonl \
	  --metrics _build/model_smoke.metrics.json
	dune exec bin/alt_cli.exe -- obs-validate \
	  --trace _build/model_smoke.trace.jsonl \
	  --metrics _build/model_smoke.metrics.json

# Serve gate: a pipe-mode daemon must admit 3 concurrent sessions, shed
# the overflow with structured rejections, survive an injected crash
# (exit 42) and, restarted on the same journal, recover the interrupted
# sessions to byte-identical results (DESIGN.md §13).
serve-smoke:
	dune build bin/alt_cli.exe
	sh scripts/serve_smoke.sh

# Exec-backend gate: a tuning run measured by compiled kernels on the
# wall clock must complete with a finite best latency and a lowerable
# best schedule (the CLI exits non-zero otherwise).  Wall-clock numbers
# are never asserted against absolute milliseconds here — box speed
# varies; correctness and rank behaviour are covered by test/test_exec.ml
# and bench-crossval, whose gates are ratio floors.
exec-smoke:
	dune exec bin/alt_cli.exe -- tune-op --op gmm --channels 8 \
	  --out-channels 8 --spatial 8 --budget 16 --seed 1 \
	  --backend exec --exec-warmup 1 --exec-repeats 3

# Relation-algebra gate: the QCheck2 round-trip/differential suite for
# the layout relation algebra (DESIGN.md §16) at a reduced chain count.
# ALT_RELATION_COUNT scales every property (default 500 under
# `dune runtest`, 60 here).
relation-smoke:
	ALT_RELATION_COUNT=60 dune exec test/test_relation.exe

# cross-device validation: measures the layout zoo with both the
# simulator and the exec backend, writes BENCH_crossval.json, and fails
# if the miss-bound streaming workload's Spearman rho drops below the
# pinned floor (ALT_BENCH_SCALE=smoke|quick|full)
bench-crossval:
	dune exec bench/bench_crossval.exe

bench-crossval-smoke:
	ALT_BENCH_SCALE=smoke dune exec bench/bench_crossval.exe

# domain-parallel exec benchmark: measures the layout zoo at 1/2/4
# domains, writes BENCH_exec.json with serial-vs-parallel wall curves,
# and fails on any legality fallback (silent serialization) or — at
# quick/full on a >= 4 core box — if the macro-bound geomean speedup at
# 4 domains drops below 1.5x; also re-checks the exec<->sim Spearman
# floor under parallel measurement (ALT_BENCH_SCALE=smoke|quick|full)
bench-exec:
	dune exec bench/bench_exec.exe

bench-exec-smoke:
	ALT_BENCH_SCALE=smoke dune exec bench/bench_exec.exe

# end-to-end scheduler benchmark: tunes the zoo twice at equal global
# budget (static split vs gradient scheduler + cost-model transfer),
# writes BENCH_e2e.json with per-model latency-vs-trials curves, and
# fails if gradient loses the zoo total to static
# (ALT_BENCH_SCALE=smoke|quick|full)
bench-e2e:
	dune exec bench/bench_e2e.exe

bench-e2e-smoke:
	ALT_BENCH_SCALE=smoke dune exec bench/bench_e2e.exe

# perfbench gate: a short zoo_gradient run of the compile-and-run
# benchmark (perfbench/README.md); run.py exits non-zero when its
# correctness gate or a determinism or ground-truth guard fails
perfbench-smoke:
	python3 perfbench/run.py --workload zoo_gradient --seed 1 --seconds 5 \
	  --trace 0

check: all test env-lint relation-smoke bench-profiler-smoke bench-tuner-smoke \
	fault-smoke obs-smoke model-smoke exec-smoke serve-smoke \
	bench-crossval-smoke bench-exec-smoke bench-e2e-smoke perfbench-smoke

# quick-scale regeneration of the paper's tables and figures
bench:
	dune exec bench/main.exe

clean:
	dune clean
