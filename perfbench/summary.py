"""Run every workload once and print each end-to-end metric, with its unit.

Run from the root of a checkout:

    python3 perfbench/summary.py --seed 1 --seconds 32

Exits 1 if any workload gave a wrong answer or could not run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (benchmark module next to this file)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    args = parser.parse_args(argv)
    status = 0
    print(f"{'workload':10s} {'metric':16s} {'value':>12s} unit")
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
        if done.returncode != 0:
            print(f"{workload:10s} did not run: {done.stderr.strip()}")
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            print(f"{workload:10s} {name:16s} {m['value']:12.6g} {m['unit']}")
        print(f"{workload:10s} {'failed_share':16s} {result['failed'] / result['attempted']:12.6g} share")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
