"""icnsim benchmark: one command (`python3 perfbench/run.py`) that runs a
workload in fresh processes, checks the outputs against the independent
oracles in `tests/oracles.py`, and prints end-to-end or per-layer metrics.

See NOTES.md for the workloads, the metrics and their limits.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
