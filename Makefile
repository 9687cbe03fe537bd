# Developer entry points. `make test` is the tier-1 gate; `make bench`
# produces the committed perf-trajectory point (BENCH_PR10.json — every
# registered bench section: solve, engine, serving, frontend,
# frontend_async, resilience, trust, loadgen; narrow a run with
# `make bench BENCH_ONLY="--only loadgen"`).
#
# The four CI smoke gates are one command, `bench_perf.py --smoke`, each
# with its own `--only` selection; together the selections cover every
# registered section exactly once (tests/eval/test_smoke_gates.py checks
# that), and every gate is a named condition in its section's
# `smoke_gates`, so CI and `make bench` run one implementation of it.
# On failure a smoke run names each failed gate and prints the command
# that replays it, e.g.
#   python benchmarks/bench_perf.py --smoke --only resilience --only trust --seed N

PYTHON ?= python
PYTHONPATH_SRC = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint typecheck analyze bench bench-smoke bench-figures \
	frontend-smoke resilience-smoke loadgen-smoke

test:
	$(PYTHON) -m pytest -q

# Mirrors CI's lint job (requires ruff; `pip install -r requirements-dev.txt`).
lint:
	ruff check .
	ruff format --check .

# Static type gate (requires mypy): strict on util/, serve/protocol.py and
# the analysis/ package, permissive elsewhere (config in pyproject.toml).
typecheck:
	mypy src/repro

# repro-lint: AST-based invariant checks (determinism RL-D*, lock
# discipline RL-C*, wire contract RL-W*) over src/repro. Fails on any
# finding not suppressed inline or grandfathered (with a reason) in
# analysis-baseline.json; always writes the full JSON report to
# ANALYSIS_FINDINGS.json (CI uploads it on failure). Needs only the
# stdlib + the repo itself — no third-party deps.
analyze:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis --format text \
		--out ANALYSIS_FINDINGS.json

bench:
	$(PYTHON) benchmarks/bench_perf.py --out BENCH_PR10.json $(BENCH_ONLY)

# Solve / engine / serving gates. Writes BENCH_SMOKE.json (gitignored)
# so a smoke run never clobbers the committed BENCH_PR10.json; CI uploads
# it under the PR-agnostic `bench-smoke` artifact name.
bench-smoke:
	$(PYTHON) benchmarks/bench_perf.py --smoke --jobs 2 --out BENCH_SMOKE.json \
		--only solve --only engine --only serving

# Wire and shard bit-identity against the in-process service: threaded
# http and unix front-ends, the asyncio front-end (sync tcp:// batches,
# pipelined singles, streamed traces with flat peak buffering), the 404
# -> KeyError error contract, and 1- and 2-shard fleets.
frontend-smoke:
	$(PYTHON) benchmarks/bench_perf.py --smoke \
		--only frontend --only frontend_async

# The fault and anti-entropy gates on 3-shard R=2 snapshot-backed fleets:
# kill -9 of each worker in turn under load (zero lost or changed
# answers, snapshot-warmed respawn), a live 3 -> 4 -> 2 resize, quorum
# read-repair of a corrupted primary, scrub detection of a corrupted
# secondary, degraded-mode stale answers, keep-last-K snapshot
# retention. The record, which carries the fault-schedule seed, is
# always written to RESILIENCE_SMOKE.json (CI uploads it on failure).
resilience-smoke:
	$(PYTHON) benchmarks/bench_perf.py --smoke --out RESILIENCE_SMOKE.json \
		--only resilience --only trust

# The load-generator gates: open-loop SLO saturation searches over the
# http and aio front-ends with every answer checked bit for bit, a
# closed-loop run, a refresh-perturbation run, same-seed plan
# determinism, and the 200-site registration soak (one shared spec must
# dedupe to ONE pipeline). The record lands in LOADGEN_SMOKE.json (CI
# uploads it on failure).
loadgen-smoke:
	$(PYTHON) benchmarks/bench_perf.py --smoke --out LOADGEN_SMOKE.json \
		--only loadgen

bench-figures:
	$(PYTHON) -m pytest benchmarks -q -p no:cacheprovider
