"""The contract's command: one run of one workload.

    python3 benchmarks/tabsbench/run.py --workload NAME --seed N \
        --seconds S --trace 0|1

Runs from a bare checkout: it puts the repository's ``src`` (the program
under test) and root on ``sys.path`` itself.
"""

import sys
import time

_STARTED_AT = time.perf_counter()  # setup_s counts the imports below

if __name__ == "__main__":
    from pathlib import Path

    _ROOT = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

    from benchmarks.tabsbench.single import main

    raise SystemExit(main(started_at=_STARTED_AT))
