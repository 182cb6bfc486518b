"""The repo benchmark: host-time and sim-time ledger over five workloads.

Run it with ``python3 bench/run.py`` from the repository root; see
``bench/README.md`` for the metric glossary and ``BENCHMARK.json`` for the
contract the driver checks.
"""
