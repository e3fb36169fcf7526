"""Outside-in benchmark for the BDLFI reproduction.

Runs four paper workloads against the program in ``src/`` through its
public entry points only, checks their outputs, and reports end-to-end
metrics plus (with ``--trace``) per-layer metrics. See ``perf/README.md``.

Usage::

    python -m perf prepare
    python -m perf run --seed 2019 [--trace] [--smoke]
    python -m perf run --workload fig2-sweep --seed 7 --seconds 20 --trace 0
    python -m perf compare perf/out/results-2019.json other/results-2019.json
"""
