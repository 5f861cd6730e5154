"""End-to-end and per-layer benchmark for naivediv.

Run it from the repository root:

    python3 perfbench/run.py --workload order-wide --seed 1 --seconds 28 --trace 0

The modules here import nothing from naivediv at import time; ``run.py``
loads the program from ``src/`` so that the import counts as set-up.
"""
