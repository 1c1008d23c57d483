#!/usr/bin/env python3
"""Reproduce the benchmark comparison on the Nguyen instance.

Runs the projected-gradient baseline and both splitting solvers with the
shipped preset configurations, then leaves the aligned relative-energy table
and per-O-D gap comparison under out/nguyen_compare/.

The three 200-iteration runs make 1,000 operator evaluations.  They took
13 s wall on a 2-CPU Xeon host (Python 3.11, numpy 2.4).

Run from the repository root:  python3 scripts/run_nguyen_comparison.py
"""

import sys
from pathlib import Path

from due.cli import main

ROOT = Path(__file__).resolve().parents[1]

CONFIGS = [
    ROOT / "configs" / "nguyen_fb.json",
    ROOT / "configs" / "nguyen_fbf.json",
    ROOT / "configs" / "nguyen_ifbf.json",
]

if __name__ == "__main__":
    argv = ["compare", "-o", str(ROOT / "out" / "nguyen_compare")]
    for cfg in CONFIGS:
        argv += ["-c", str(cfg)]
    sys.exit(main(argv))
