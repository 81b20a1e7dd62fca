"""The performance benchmark: four workloads measured end to end and layer
by layer, each statement checked against an independent oracle.

``python -m bench.run --seed 2014`` runs everything; see ``bench/README.md``.
The package measures the engine from outside and imports nothing from
``repro.workloads``: the engine receives only generated rows and SQL text.
"""
