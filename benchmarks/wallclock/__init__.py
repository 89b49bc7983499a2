"""Wall-clock ledger: gateway workloads measured end to end and per layer.

See ``README.md`` in this directory.  Entry point: ``run.py``.
"""
