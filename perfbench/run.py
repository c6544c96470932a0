"""Entry point of the rpl benchmark.

    python3 perfbench/run.py --workload extract-mc|orders|search \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a child
interpreter (worker.py) whose environment drops RPL_CACHE_DIR, so the
fractal disk cache cannot carry state from one run into the next, and
fixes PYTHONHASHSEED.  The last line of stdout is the JSON result; with
--trace 0 it carries the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones.
"""

import os
import subprocess
import sys
from pathlib import Path

TIMEOUT_S = 175


def main() -> int:
    here = Path(__file__).resolve().parent
    root = here.parent
    if not (root / "src" / "rpl" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no rpl sources under {root / 'src' / 'rpl'}\n")
        return 2
    env = {k: v for k, v in os.environ.items() if k != "RPL_CACHE_DIR"}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(here / "worker.py"), *sys.argv[1:]]
    try:
        return subprocess.run(cmd, env=env, cwd=root, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: workload run exceeded {TIMEOUT_S} s and was stopped\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
