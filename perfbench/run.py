"""qbfun benchmark: request latency, throughput and memory per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload engine --seed 1 --seconds 10 --trace 0

A request is one ``qbfun`` subcommand run in-process through
``qbfun.cli.cli_main(argv)``; requests run in a closed loop with one client,
in one worker process, and every answer is checked (see worker.py).  With
``--trace 0`` the last line of stdout is a JSON object whose metrics are the
end-to-end metrics below; with ``--trace 1`` they are the per-layer metrics
of one traced pass (see tracing.py).  Lines before it are for people: every
metric by name with its unit, and the run's metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (benchmark modules next to this file)
import workloads  # noqa: E402

# (name, unit); BENCHMARK.json lists the same metrics with their bounds.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("answered_share", "share"),
)

# Import timings are taken half before and half after the worker, so that
# their median spans the same stretch of machine time as the requests.
SETUP_REPEATS = 6
WORKER_TIMEOUT_S = 170

# Runs in a fresh interpreter: time to import qbfun.cli from the checkout's src.
_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import qbfun.cli
elapsed = time.perf_counter() - start
import os
if os.path.dirname(os.path.abspath(qbfun.__file__)) != os.path.join(sys.argv[1], "qbfun"):
    sys.exit("qbfun imported from " + qbfun.__file__)
print(repr(elapsed))
"""


def import_seconds(src: Path) -> float:
    done = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, str(src)],
        capture_output=True, text=True, timeout=60,
    )
    if done.returncode != 0:
        raise RuntimeError(f"import probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def import_samples(src: Path, repeats: int) -> list[float]:
    return [import_seconds(src) for _ in range(repeats)]


def run_worker(root: Path, args) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}:\n{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def commit(root: Path) -> str:
    """The checkout's git commit, or "unknown" when it is not a git work tree.

    Git is kept from searching above the checkout, so a benchmark copied out
    of its repository does not report some enclosing repository's commit.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_files(src: Path) -> list[Path]:
    return sorted((src / "qbfun").glob("*.py"))


def source_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in source_files(src))


def source_digest(src: Path) -> str:
    """Hash of src/qbfun's sources: names the program measured when there is no commit."""
    h = hashlib.sha256()
    for path in source_files(src):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qbfun benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "qbfun" / "cli.py").is_file():
        print(f"error: no qbfun sources under {src}; run from the root of a qbfun checkout", file=sys.stderr)
        return 2
    try:
        imports = [] if args.trace else import_samples(src, SETUP_REPEATS + 1)[1:]
        result = run_worker(root, args)
        imports += [] if args.trace else import_samples(src, SETUP_REPEATS)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        declared = tracing.PER_LAYER
        values = result["layers"]
    else:
        declared = END_TO_END
        values = dict(result, setup_s=statistics.median(imports), answered_share=1.0 - failed / attempted)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in declared}

    meta = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "python": platform.python_version(),
        "commit": commit(root),
        "nproc": os.cpu_count(),
        "src_qbfun_lines": source_lines(src),
        "src_qbfun_sha256": source_digest(src),
        "requests_per_pass": result["requests_per_pass"],
        "passes": result["passes"],
        "failed_share": failed / attempted,
        "failures": result["failures"],
    }
    if "spans" in result:
        meta["spans"] = result["spans"]
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "metrics": metrics}, handle, indent=2)

    for key in ("python", "commit", "nproc", "src_qbfun_lines", "src_qbfun_sha256", "requests_per_pass", "passes"):
        print(f"# {key}: {meta[key]}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_share = {meta['failed_share']:.6g} share ({failed} of {attempted} requests)")
    for line in meta["failures"]:
        print(f"# failed: {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
