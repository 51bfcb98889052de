"""The rekey-interval benchmark (see README.md in this directory).

One command builds a workload from ``--seed`` in a fresh process, drives
the real stacks through their public API for a fixed number of *cycles*
(churn phase, then the interval close, each drained to quiescence),
checks every output, and prints the end-to-end metrics; a separate
``--trace`` run wraps each layer's public entry points from this
directory's own files and prints the per-layer ledger.  Nothing under
``src/`` knows a workload name or a seed.
"""
