"""Stdlib-only benchmark for colorlie; run ``perfbench/run.py`` from the repository root."""
