"""Time one workload's set-up in a fresh interpreter.

    python3 perfbench/probe.py --workload NAME --inputs DIR

Prints one JSON line {"setup_s": ..., "scaled_s": ...}: the seconds spent
importing leonard, making every field the workload uses and running one
untimed warm-up item per field, which fills the field, embedding and
irreducible-polynomial caches; and the same scaled to the reference speed
(speed.py).  run.py starts this several times per run and reports the
median.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from speed import scaled  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (imports no leonard module)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", type=Path, required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload](args.inputs)
    t0 = time.perf_counter()
    import leonard  # noqa: F401
    wl.set_up()
    seconds = time.perf_counter() - t0
    print(json.dumps({"setup_s": seconds, "scaled_s": scaled(seconds)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
