# Developer entry points for the reproduction.
#
#   make test   - tier-1 test suite (the driver's acceptance gate)
#   make bench  - tier-1 suite + the end-to-end benchmark, three sessions
#                 per workload (engagement guards, hygiene, expected.json;
#                 benchmarks/e2e/README.md)
#   make diff-test  - tier-1 suite with the differential kernel backend
#   make seed-test  - tier-1 suite on the seed paths (trace capture and
#                 hot-path caches off)
#   make poison-test - tier-1 suite with every uninitialised region-field
#                 allocation poisoned (NaN bytes; tests/conftest.py)
#   make trace  - smoke-mode CG run with telemetry armed; writes the
#                 Perfetto-loadable TRACE_cg.json (parent + worker lanes)

PYTHON ?= python
PYTHONPATH_ARG = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test bench diff-test seed-test poison-test trace

test:
	$(PYTHONPATH_ARG) $(PYTHON) -m pytest -x -q

bench: test
	python3 benchmarks/e2e/run.py --sessions 3

diff-test:
	$(PYTHONPATH_ARG) REPRO_KERNEL_BACKEND=differential $(PYTHON) -m pytest -x -q tests/

seed-test:
	$(PYTHONPATH_ARG) REPRO_TRACE=0 REPRO_HOTPATH_CACHE=0 $(PYTHON) -m pytest -x -q

poison-test:
	$(PYTHONPATH_ARG) $(PYTHON) -m pytest -x -q --poison-fields

trace:
	$(PYTHONPATH_ARG) $(PYTHON) -m repro.tools.tracedump --app cg --smoke --output TRACE_cg.json
