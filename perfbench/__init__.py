"""The serving benchmark: one command, three workloads, per-layer traces.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
launches the selection gateway in its own server process
(:mod:`perfbench.server`), drives it over loopback HTTP from this process
(:mod:`perfbench.client`), checks every answer against references
computed in-process (:mod:`perfbench.prepare`), and prints one JSON line
of end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics.
Workloads and their traffic live in :mod:`perfbench.workloads`; span
recording and self-time derivation in :mod:`perfbench.tracing`.
"""
