"""Self-test of the benchmark itself, at tiny sizes (a few seconds).

Run from the root of a checkout:

    python3 perfbench/selftest.py

- every workload runs clean at a tiny size, traced, and reports every
  per-layer metric; engine and geometry make no poly calls, engine no
  linalg.rank calls;
- a corrupted golden answer is reported as a failed request, so a fast wrong
  answer cannot pass;
- BENCHMARK.json names the workloads and metrics this directory measures.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import tracing
import worker
import workloads


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL {message}")
    print(f"ok   {message}")


def tiny_runs(root: Path) -> None:
    for workload in workloads.WORKLOADS:
        result = worker.measure(workload, 1, 0, True, root, tiny=True)
        layers = result["layers"]
        check(result["attempted"] > 0 and result["failed"] == 0, f"{workload}: tiny pass answers correctly {result['failures']}")
        missing = [name for name, *_ in tracing.PER_LAYER if name not in layers]
        check(not missing, f"{workload}: traced pass reports every per-layer metric {missing}")
        check(layers["cli.cli_main.self_ms"] > 0, f"{workload}: cli.cli_main is traced")
        if workload == "oracle":
            check(layers["poly.mul.calls"] > 0, f"{workload}: poly.mul is traced")
        else:
            check(layers["poly.mul.calls"] == 0, f"{workload}: no poly.mul calls")
        if workload == "engine":
            check(layers["linalg.rank.calls"] == 0, f"{workload}: no linalg.rank calls")


def corrupted_golden(root: Path) -> None:
    golden = workloads.load_golden("engine")
    first = workloads.build_pass("engine", 1, golden, tiny=True)[0]
    golden["answers"][first.key] = [0, "0" * 16]
    result = worker.measure("engine", 1, 0, False, root, tiny=True, golden=golden)
    check(result["failed"] / result["attempted"] > 0, "a corrupted golden answer gives failed_share > 0")


def benchmark_json(root: Path) -> None:
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    check([w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json workloads")
    check(
        sorted((m["name"], m["unit"]) for m in declared["end_to_end"]) == sorted(run.END_TO_END),
        "BENCHMARK.json end-to-end metrics",
    )
    check(
        [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(tracing.PER_LAYER),
        "BENCHMARK.json per-layer metrics",
    )


def main() -> int:
    root = Path.cwd()
    tiny_runs(root)
    corrupted_golden(root)
    benchmark_json(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
