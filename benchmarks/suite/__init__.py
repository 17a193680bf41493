"""The repo benchmark: six workloads, end-to-end and per-layer metrics.

See ``README.md`` in this directory for the catalogue and how to run and
compare sets. Importing this package imports nothing heavy: numpy and
``repro`` load only inside the repeat processes.
"""
