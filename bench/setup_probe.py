"""Set-up probe: a fresh interpreter imports nfnls and builds one workload's
inputs, then prints ``ready``.  run.py times it from process start to that
line.

    python3 bench/setup_probe.py WORKLOAD SEED [tiny]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]), tiny=len(sys.argv) > 3)
    print("ready", flush=True)
