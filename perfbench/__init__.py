"""Seeded end-to-end and per-layer benchmark of the indexer_ray index path.

Run from the repository root: ``python3 perfbench/run.py --workload
search-warm --seed 1 --seconds 10 --trace 0``.  See perfbench/README.md."""
