"""Run one workload in this process and print its measurements as one JSON line.

Usage (normally started by run.py, from the root of a checkout):

    python3 perfbench/worker.py --workload engine --seed 1 --seconds 10 --trace 0

Requests run in a closed loop with one client: each is one ``qbfun``
subcommand through ``qbfun.cli.cli_main(argv)`` with stdout captured, and
the next is sent only after the previous one has been answered and checked.
Whole passes repeat until the run is as near to ``--seconds`` as whole
passes allow (at least two passes); each metric is taken per pass and the
median over passes is reported.  With ``--trace 1`` the run is three passes,
untraced, traced and untraced, and the tracing overhead is the traced pass's
throughput against the mean of its two neighbours.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (benchmark module next to this file)


def import_qbfun(root: Path):
    """Import qbfun from ``<root>/src``, refusing any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import qbfun
    import qbfun.cli

    if Path(qbfun.__file__).resolve().parent != src / "qbfun":
        raise ImportError(f"qbfun imported from {qbfun.__file__}, not from {src}")
    return qbfun


def digest(stdout: str) -> str:
    """Hash of the canonicalised answer: sorted compact JSON, or text without trailing blanks."""
    try:
        canonical = json.dumps(json.loads(stdout), sort_keys=True, separators=(",", ":"))
    except ValueError:
        canonical = "\n".join(line.rstrip() for line in stdout.strip().splitlines())
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class Checker:
    """Checks each answer against its golden digest and, where one exists, an independent route.

    - engine: ``b_multivariate(...).specialize_label(i)`` (from ``bfun-multi``)
      equals the one-variable answer of ``bfun --pq``;
    - geometry: ``b_from_fset(f_set(N))`` of the rank parameter from ``ranks``
      equals the closed formula ``b_one_variable``;
    - oracle: ``verify`` reports ``ok``.
    """

    def __init__(self, workload: str, golden: dict, qbfun):
        self.workload = workload
        self.answers = golden["answers"]
        self.qbfun = qbfun
        self.multi = {}  # chain -> (labels, several-variable b-function)

    def check(self, req, rc, stdout) -> str | None:
        """None when the answer is right, else the reason it is wrong."""
        want = self.answers.get(req.key)
        if want is None:
            return "no golden answer"
        if rc != want[0]:
            return f"exit code {rc}, golden {want[0]}"
        got = digest(stdout)
        if got != want[1]:
            return f"answer digest {got}, golden {want[1]}"
        return getattr(self, f"_cross_{self.workload}")(req, json.loads(stdout) if req.argv[0] in CROSS else None)

    def _cross_engine(self, req, data):
        from qbfun.jsonio import bfun_from_json

        if req.argv[0] == "bfun-multi":
            self.multi[req.chain] = (data["labels"], bfun_from_json(data["b"]))
        elif req.argv[0] == "bfun":
            if req.chain not in self.multi:
                return "bfun answered before bfun-multi of its chain"
            labels, multi = self.multi[req.chain]
            label = labels.index(list(req.pq)) + 1
            if multi.specialize_label(label) != bfun_from_json(data["b"]):
                return f"specialize_label({label}) of bfun-multi differs from bfun"
        return None

    def _cross_geometry(self, req, data):
        if req.argv[0] != "ranks":
            return None
        q = self.qbfun
        from qbfun.jsonio import rank_from_json

        quiver, dims = q.parse_quiver(req.chain[0]), q.DimVector.parse(req.chain[1])
        closed = q.b_one_variable(quiver, dims, q.invariant_index(quiver, *req.pq))
        if q.b_from_fset(q.f_set(rank_from_json(data["rank_parameter"]))) != closed:
            return "rank-parameter route differs from the closed formula"
        return None

    def _cross_oracle(self, req, data):
        if data["ok"] is not True:
            return "verify reported a failed check"
        return None


# p90 of a pass then has at least ten samples beyond it
MIN_REQUESTS = 100

# a median over passes needs passes to compare; oracle's single pass is ~22 s
MIN_PASSES = 2

# subcommands whose JSON answer feeds a cross-check
CROSS = {"bfun-multi", "bfun", "ranks", "verify"}


def run_request(cli, req, tracer=None):
    """(seconds, exit code or None, stdout, error text) of one request."""
    out, err = io.StringIO(), io.StringIO()
    scope = tracer.request(req.argv) if tracer else contextlib.nullcontext()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), scope:
            rc = cli.cli_main(list(req.argv))
    except Exception:  # a crash is one failed request; the pass goes on
        return perf_counter() - start, None, out.getvalue(), traceback.format_exc(limit=3)
    return perf_counter() - start, rc, out.getvalue(), err.getvalue()


class Tally:
    """Latencies per pass, and the requests that failed."""

    def __init__(self):
        self.passes = []
        self.attempted = 0
        self.failures = []

    def record(self, req, checker, seconds, rc, stdout, errtext):
        self.attempted += 1
        reason = f"exception: {errtext.strip().splitlines()[-1]}" if rc is None else None
        if reason is None:
            try:
                reason = checker.check(req, rc, stdout)
            except Exception as exc:  # an unreadable answer is a wrong answer
                reason = f"answer not checkable: {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failures.append(f"{req.key}: {reason}")
        return seconds

    def run_pass(self, cli, requests, checker, tracer=None):
        self.passes.append([self.record(req, checker, *run_request(cli, req, tracer)) for req in requests])
        checker.multi.clear()

    def summary(self) -> dict:
        """Each metric per pass, then the median over passes."""
        per_pass = []
        for latencies in self.passes:
            lat = sorted(latencies)
            per_pass.append(
                {
                    "ops_per_s": len(lat) / sum(lat),
                    "latency_p50_ms": 1000.0 * statistics.median(lat),
                    "latency_p90_ms": 1000.0 * percentile(lat, 0.9),
                }
            )
        return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}


def percentile(sorted_values, share):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path, tiny=False, golden=None):
    """Run the workload and return its measurements (a JSON-ready dict)."""
    qbfun = import_qbfun(root)
    cli = sys.modules["qbfun.cli"]
    golden = golden if golden is not None else workloads.load_golden(workload)
    requests = workloads.build_pass(workload, seed, golden, tiny)
    if not requests:
        raise RuntimeError(f"workload {workload} with seed {seed} has no requests")
    if len(requests) < MIN_REQUESTS and not tiny:
        raise RuntimeError(f"a pass of {workload} with seed {seed} has {len(requests)} requests, fewer than {MIN_REQUESTS}")
    checker = Checker(workload, golden, qbfun)
    tally = Tally()

    # warm-up: the pass's first request, checked but not timed
    tally.record(requests[0], checker, *run_request(cli, requests[0]))
    checker.multi.clear()
    start = perf_counter()
    if trace:
        # untraced, traced, untraced: the traced pass is compared with its neighbours
        from tracing import Tracer

        tracer = Tracer()
        traced = Tally()
        tally.run_pass(cli, requests, checker)
        tracer.install()
        try:
            traced.run_pass(cli, requests, checker, tracer)
        finally:
            tracer.uninstall()
        tally.run_pass(cli, requests, checker)
    else:
        # At least MIN_PASSES; then another pass only if its expected end lies
        # nearer to --seconds than the present time does.
        while True:
            tally.run_pass(cli, requests, checker)
            elapsed = perf_counter() - start
            if len(tally.passes) >= MIN_PASSES and elapsed + 0.5 * elapsed / len(tally.passes) >= seconds:
                break
    result = {
        "workload": workload,
        "seed": seed,
        "passes": len(tally.passes),
        "requests_per_pass": len(requests),
        "wall_s": perf_counter() - start,
        **tally.summary(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": tally.failures[:20],
    }
    if trace:
        layers = tracer.layer_metrics()
        layers["trace.overhead_share"] = 1.0 - traced.summary()["ops_per_s"] / result["ops_per_s"]
        result["layers"] = layers
        result["attempted"] += traced.attempted
        result["failed"] += len(traced.failures)
        result["failures"] += traced.failures[:20]
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl.gz"
        tracer.write_spans(spans_path)
        result["spans"] = str(spans_path.relative_to(root))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), Path(os.getcwd()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
