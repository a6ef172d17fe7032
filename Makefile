PYTHON ?= python

.PHONY: install test bench examples artifacts clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/multi_process_sharing.py
	$(PYTHON) examples/reactive_loops.py
	$(PYTHON) examples/period_exploration.py
	$(PYTHON) examples/hdl_generation.py

artifacts:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
