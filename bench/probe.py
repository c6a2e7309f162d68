"""Set-up probe: a fresh interpreter imports qgamble and builds one workload's
inputs, then exits.  The runner times whole runs of this script for setup_s.

    python3 bench/probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]))
