# Convenience entry points; CI runs the same commands (.github/workflows/ci.yml).
PYTHON ?= python
export PYTHONPATH := src

.PHONY: test analyze analyze-tests analyze-diff simsan-smoke tie-smoke trace-smoke chaos-smoke copyengine-smoke lint baseline all bench bench-full bench-smoke perf-baseline

all: analyze test

test:
	$(PYTHON) -m pytest -x -q
	$(PYTHON) -m pytest simbench/tests -q

# Regenerate every paper exhibit (quick scale), then enforce the
# events/sec floors (engine, fig12, fig13) against
# benchmarks/bench-baseline.json.  REPRO_JOBS sets the sweep worker
# count; results/.simcache memoizes unchanged points
# (REPRO_SIMCACHE=off to disable).
bench:
	$(PYTHON) -m pytest benchmarks -x -q -p no:cacheprovider
	$(PYTHON) -m repro.perf gate

# Paper-sized parameters (slow).
bench-full:
	REPRO_SCALE=full $(PYTHON) -m pytest benchmarks -x -q -p no:cacheprovider

# Every exhibit file CI runs in full, all but Fig. 23 (copyengine-smoke
# runs its two-backend slice): the Fig. 12 and Fig. 21 sweeps, the
# copy overhead of Fig. 2, the interposer, kernel COW and pipe copy
# paths of Figs. 14, 18 and 19, the 8-thread write-heavy MVCC runs of
# Figs. 16 and 17, whose bandwidth-bound asserts load the WPQ drain
# path, the chained copies, CTT-full stalls and parallel async frees
# of Figs. 15, 20 and 22, the exhibits whose asserts rest on the
# core's accounting (the mem-miss and stall cycles of Fig. 3, the CLWB
# trains and MCLAZY latency of Fig. 10, the store-buffer knee of
# Fig. 11 and the blocking loads of Fig. 13), the copy-size CDF of
# Fig. 4, Table I, the three ablations and the CXL sensitivity study),
# then the events/sec gate against benchmarks/bench-baseline.json.
bench-smoke:
	REPRO_JOBS=2 $(PYTHON) -m pytest benchmarks/test_fig12_seq_access.py benchmarks/test_fig21_bpq_sweep.py benchmarks/test_fig14_protobuf.py benchmarks/test_fig18_hugepage_cow.py benchmarks/test_fig19_pipe.py benchmarks/test_fig02_copy_overhead.py benchmarks/test_fig16_mvcc_rmw.py benchmarks/test_fig17_mvcc_writeonly.py benchmarks/test_fig15_mongodb.py benchmarks/test_fig20_ctt_sweep.py benchmarks/test_fig22_ctt_free_scaling.py benchmarks/test_fig03_overhead_source.py benchmarks/test_fig10_copy_latency.py benchmarks/test_fig11_breakdown.py benchmarks/test_fig13_rand_access.py benchmarks/test_fig04_size_cdf.py benchmarks/test_table1_config.py benchmarks/test_ablation_wide_writeback.py benchmarks/test_ablation_interposer.py benchmarks/test_ablation_async_engine.py benchmarks/test_sensitivity_cxl.py -x -q -p no:cacheprovider
	$(PYTHON) -m repro.perf gate

# Re-record the machine-normalized perf baseline (run on an idle box).
perf-baseline:
	$(PYTHON) -m repro.perf baseline

analyze:
	$(PYTHON) -m repro.analysis src/repro

# Fork-safety / stale-noqa families only; the planted sanitizer and
# race-order fixtures are excluded because they violate the rules on
# purpose.
analyze-tests:
	$(PYTHON) -m repro.analysis tests benchmarks --select MC2401,MC2402,MC2403,MC2404,MC2901 --exclude tests/unit/simsan_plants.py --exclude tests/unit/raceorder_plants.py

# Exit non-zero only on findings not in analysis-baseline.json.
analyze-diff:
	$(PYTHON) -m repro.analysis src/repro --diff

# One real sweep under the runtime sanitizer (docs/ANALYSIS.md).
simsan-smoke:
	REPRO_SIMSAN=1 REPRO_JOBS=2 REPRO_SIMCACHE=off $(PYTHON) -m pytest benchmarks/test_fig12_seq_access.py -x -q -p no:cacheprovider

# One real sweep under the tie-order perturbation sanitizer: every
# point runs twice (fifo vs lifo equal-cycle dispatch) and the full
# stat trees must match bit for bit (docs/ANALYSIS.md).
tie-smoke:
	REPRO_TIE_ORDER=paired REPRO_JOBS=2 REPRO_SIMCACHE=off $(PYTHON) -m pytest benchmarks/test_fig21_bpq_sweep.py -x -q -p no:cacheprovider

# Two-backend slice of the Fig. 23 crossover family (mclazy vs
# rowclone at 4KB/64KB): verifies functional equivalence end to end
# and that the lazy-vs-in-DRAM winner flips with size
# (docs/COPYENGINE.md).
copyengine-smoke:
	$(PYTHON) -m pytest benchmarks/test_fig23_backend_crossover.py -k smoke -x -q -p no:cacheprovider

# One traced micro workload end to end: export, schema-validate, and
# summarize a Chrome trace (docs/OBSERVABILITY.md); then hold the
# random-access exhibit to its golden (diff --strict).
trace-smoke:
	$(PYTHON) -m repro.obs run --workload seq --buffer-kb 64 \
		--out results/traces/trace-smoke.trace.json \
		--timeline-csv results/traces/trace-smoke.timeline.csv
	$(PYTHON) -m repro.obs validate results/traces/trace-smoke.trace.json
	$(PYTHON) -m repro.obs run --workload random --buffer-kb 16 \
		--out results/traces/trace-smoke-random.trace.json
	$(PYTHON) -m repro.obs diff --strict tests/goldens/random-16k.trace.json \
		results/traces/trace-smoke-random.trace.json

# Chaos drill: kill workers / sleep past deadlines / SIGKILL the
# sweeping process, then assert checkpoint-resume merges bit-identical
# and poison points land in the failure report (docs/RESILIENCE.md).
chaos-smoke:
	REPRO_JOBS=4 $(PYTHON) -m pytest tests/integration/test_chaos.py -x -q -p no:cacheprovider
	$(PYTHON) -m repro.analysis src/repro/resilience

# Requires the lint extra: pip install -e .[lint]
lint: analyze
	ruff check src tests
	mypy

# Re-record grandfathered findings (policy: keep this empty; add a
# justification string to any entry you must keep).
baseline:
	$(PYTHON) -m repro.analysis src/repro --write-baseline
