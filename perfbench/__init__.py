"""The repository benchmark (see METRICS.md); run it as ``python3 perfbench/run.py``."""
