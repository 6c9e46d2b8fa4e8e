"""Self-tests of the harness (seconds).  ``benchmarks/conftest.py`` marks
everything under ``benchmarks/`` slow, so tier-1 skips them; run with
``PYTHONPATH=src:. python -m pytest -m "" benchmarks/perf/tests``."""
