"""The repo's one performance benchmark (see README.md in this directory).

Two entry points share every definition in this package:

* ``python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S
  --trace 0|1`` -- ONE run of ONE workload in this process; the unit
  ``BENCHMARK.json`` names as its ``command``.
* ``PYTHONPATH=src:. python -m benchmarks.perf`` -- the driver: runs the
  correctness gate, then every (workload, repeat) as a fresh ``run.py``
  subprocess, one at a time and round-robin, and prints
  median/q1/q3/min/max/n per metric.

Nothing here is imported by the package under test, and the harness
edits no file outside this directory and ``BENCHMARK.json``: layers are
timed from outside, through wrappers set on *instances* during a
separate traced run.
"""
