# Developer entry points for the reproduction.
#
#   make test   - tier-1 test suite (the driver's acceptance gate)
#   make bench  - tier-1 suite + wall-clock perf harness in smoke mode;
#                 fails if the codegen and interpreter backends diverge
#   make bench-full - full wall-clock harness (enforces the 3x CG gate)
#   make diff-test  - tier-1 suite with the differential kernel backend
#   make poison-test - tier-1 suite with every uninitialised region-field
#                 allocation poisoned (NaN bytes; tests/conftest.py)
#   make trace  - smoke-mode CG run with telemetry armed; writes the
#                 Perfetto-loadable TRACE_cg.json (parent + worker lanes)

PYTHON ?= python
PYTHONPATH_ARG = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test bench bench-full diff-test poison-test trace

test:
	$(PYTHONPATH_ARG) $(PYTHON) -m pytest -x -q

bench: test
	$(PYTHONPATH_ARG) $(PYTHON) benchmarks/perf_wallclock.py --smoke

bench-full: test
	$(PYTHONPATH_ARG) $(PYTHON) benchmarks/perf_wallclock.py

diff-test:
	$(PYTHONPATH_ARG) REPRO_KERNEL_BACKEND=differential $(PYTHON) -m pytest -x -q tests/

poison-test:
	$(PYTHONPATH_ARG) $(PYTHON) -m pytest -x -q --poison-fields

trace:
	$(PYTHONPATH_ARG) $(PYTHON) -m repro.tools.tracedump --app cg --smoke --output TRACE_cg.json
