# Convenience targets for the reproduction workflow.

.PHONY: install test lint bench bench-save bench-compare perfcheck perfcheck-procs health-save health-compare report examples clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/ -q

# Static checks. Skips gracefully where ruff isn't installed (the
# air-gapped reproduction image); CI installs it and enforces.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping lint (pip install ruff)"; \
	fi

bench:
	pytest benchmarks/ --benchmark-only -s

# Sampler micro-benchmarks (pytest-benchmark): store a run under
# .benchmarks/ / fail when any median regresses >25% vs the latest stored run.
bench-save:
	PYTHONPATH=src python -m pytest benchmarks/test_perf_samplers.py --benchmark-only --benchmark-autosave

bench-compare:
	PYTHONPATH=src python -m pytest benchmarks/test_perf_samplers.py --benchmark-only --benchmark-compare --benchmark-compare-fail=median:25%

# Fast perf smoke for tier-1 CI: five checks (one DPMHBP sweep, one default
# RankSVM fit, one exact-AUC call, 200k no-op telemetry calls, a parallel
# fan-out) must each land under a generous ceiling.
perfcheck:
	PYTHONPATH=src python -m repro.perf smoke

# Same smoke under the multi-process backend: every map builds and joins
# its own per-call process pool; the fan-out check also publishes a
# shared-memory bundle and asserts no segment leaks.
perfcheck-procs:
	REPRO_EXECUTOR=processes REPRO_JOBS=2 PYTHONPATH=src python -m repro.perf smoke

# Metric-drift harness (save/compare for accuracy):
# snapshot a run directory's per-cell metrics to HEALTH_<rev>.json / fail
# when any cell's metric moves outside the band. Usage:
#   make health-save RUN_DIR=runs/my-run
#   make health-compare RUN_DIR=runs/my-run
RUN_DIR ?= runs/latest
health-save:
	PYTHONPATH=src python -m repro.monitor save $(RUN_DIR)

health-compare:
	PYTHONPATH=src python -m repro.monitor compare $(RUN_DIR)

report:
	python -c "from repro.eval.report import write_report; print(write_report('benchmarks/artifacts'))"

examples:
	python examples/quickstart.py --scale 0.1
	python examples/model_comparison.py --scale 0.1
	python examples/wastewater_chokes.py --scale 0.1
	python examples/risk_map_export.py --scale 0.1
	python examples/inspection_planning.py --scale 0.15
	python examples/survival_exploration.py --scale 0.1

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
