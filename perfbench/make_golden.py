"""Write golden/<workload>.json: the answer digest of every request any seed can send.

Usage, from the root of a checkout:

    python3 perfbench/make_golden.py [engine geometry oracle]

Every answer must exit 0 and pass the workload's independent cross-check
before it is stored.  Rerun only when a change alters an answer on purpose,
and say why in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import worker
import workloads


def golden_for(workload: str, cli, qbfun) -> dict:
    golden = {"workload": workload, "invariants": {}, "answers": {}}
    checker = worker.Checker(workload, golden, qbfun)
    failures = []

    def answer(req):
        _, rc, stdout, err = worker.run_request(cli, req)
        golden["answers"][req.key] = [rc, worker.digest(stdout)]
        reason = f"exit {rc}: {err.strip()}" if rc != 0 else checker.check(req, rc, stdout)
        if reason:
            failures.append(f"{req.key}: {reason}")

    for chain in workloads.all_chains(workload):
        # per-invariant requests are built from this answer, so it is stored for every chain
        listing = workloads.Request(("invariants", "--quiver", chain[0], "--dims", chain[1]), chain)
        pairs = json.loads(worker.run_request(cli, listing)[2])
        golden["invariants"][workloads.chain_id(chain)] = pairs
        for req in workloads.chain_requests(workload, chain, pairs):
            answer(req)
    if workload == "oracle":
        answer(workloads.oracle_extra_request())
    if failures:
        raise SystemExit("refusing to store goldens:\n" + "\n".join(failures))
    return golden


def main(argv) -> int:
    qbfun = worker.import_qbfun(Path.cwd())
    cli = sys.modules["qbfun.cli"]
    for workload in argv or workloads.WORKLOADS:
        golden = golden_for(workload, cli, qbfun)
        path = workloads.GOLDEN_DIR / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=0, sort_keys=True)
            handle.write("\n")
        print(f"{workload}: {len(golden['answers'])} answers, {len(golden['invariants'])} chains -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
