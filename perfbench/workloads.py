"""Seeded workloads: the inputs each pass sends, and why each workload exists.

The chain generator uses only the standard library's ``random`` and never
imports qbfun, so the program under test receives generated inputs and
nothing else.  Each workload has a fixed set of chains whose golden answers
are stored in ``golden/<workload>.json``; the run seed sets the order in
which a pass sends them.  Per-invariant requests take their ``(p, q)``
pairs from the stored golden answer of ``invariants``.

The seed does not pick a subset of a larger pool: with a different subset
per seed, the request count of a pass changed, and with it which requests
lay at p90 (geometry's p90 read 110 ms on some seeds and 147 ms on others).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

WORKLOADS = ("engine", "geometry", "oracle")

WHY = {
    "engine": (
        "closed-formula engine at scale on random chains with r in {20, 40, 80}: enumeration "
        "(about 95% of the time, mostly sinks_sources recomputed per pair), b-functions, "
        "a-functions and renders; it makes zero linalg and poly calls, so it is the bypass "
        "case for kernel changes"
    ),
    "geometry": (
        "the only workload where linalg.rank/mat_mul (through invariants.assemble) and the Ext "
        "counting of ranks.slice_representation (through quiver.euler_form) do most of the work; "
        "exact diagrams are rebuilt repeatedly on medium chains; zero poly calls"
    ),
    "oracle": (
        "the only workload that touches poly: the criterion-5 oracle family, where the 4x4 Cayley "
        "cases are multiplication-heavy and the --multi cases are heavy on exact_div; every case "
        "is decided at the default budget"
    ),
}


@dataclass(frozen=True)
class Stratum:
    """``count`` random chains with ``r`` vertices and dimensions 1..nmax."""

    r: int
    nmax: int
    count: int


STRATA = {
    "engine": (Stratum(20, 8, 10), Stratum(40, 8, 5), Stratum(80, 8, 2)),
    "geometry": (Stratum(20, 10, 12), Stratum(30, 10, 3)),
}

# Always in the geometry pass: an equioriented chain whose exact diagrams
# are long path products, so linalg.rank sees its largest matrices here.
EQUIORIENTED = ("R," * 19).rstrip(","), ",".join("12" if v % 2 else "14" for v in range(1, 21))


@dataclass(frozen=True)
class Request:
    """One qbfun subcommand; ``chain`` and ``pq`` tie it to its cross-checks."""

    argv: tuple
    chain: tuple
    pq: tuple | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def random_chain(rng: random.Random, r: int, nmax: int) -> tuple[str, str]:
    """A chain with random orientation (compact form) and dimensions 1..nmax."""
    quiver = ",".join(rng.choice("RL") for _ in range(r - 1))
    dims = ",".join(str(rng.randint(1, nmax)) for _ in range(r))
    return quiver, dims


def stratum_chains(workload: str, stratum: Stratum) -> list[tuple[str, str]]:
    """The chains of one stratum, from a generator seeded by the stratum alone."""
    rng = random.Random(f"qbfun-chains-{workload}-r{stratum.r}-n{stratum.nmax}")
    return [random_chain(rng, stratum.r, stratum.nmax) for _ in range(stratum.count)]


def oracle_instances() -> list[tuple[str, str]]:
    """The criterion-5 family of the acceptance tests, in its order there."""
    cases = [(d, f"{m},{m}") for d in ("1->2", "1<-2") for m in (1, 2, 3, 4)]
    for d1 in ("->", "<-"):
        for d2 in ("->", "<-"):
            for n1 in (1, 2, 3):
                for n2 in (1, 2, 3):
                    for n3 in (1, 2, 3):
                        cases.append((f"1{d1}2{d2}3", f"{n1},{n2},{n3}"))
    return cases


ORACLE_EXTRA = ("1->2->3->4", "1,2,2,1", "2,1")


def all_chains(workload: str) -> list[tuple[str, str]]:
    """Every chain of the workload: what the golden file covers."""
    if workload == "oracle":
        return oracle_instances()
    chains = [c for stratum in STRATA[workload] for c in stratum_chains(workload, stratum)]
    if workload == "geometry":
        chains.append(EQUIORIENTED)
    return chains


def chain_requests(workload: str, chain: tuple[str, str], pairs) -> list[Request]:
    """The requests of one chain, given its invariant pairs."""
    quiver, dims = chain
    base = ("--quiver", quiver, "--dims", dims)

    def req(cmd, *extra, pq=None):
        return Request((cmd, *base, *extra), chain, pq)

    out = []
    if workload == "engine":
        out += [
            req("invariants"),
            req("bfun-multi"),
            req("afun"),
            req("diagram", "--superposed", "--render", "svg"),
        ]
        for p, q in pairs:
            out += [
                req("bfun", "--pq", f"{p},{q}", pq=(p, q)),
                req("diagram", "--pq", f"{p},{q}", "--render", "ascii", pq=(p, q)),
            ]
    elif workload == "geometry":
        for p, q in pairs:
            out += [req("ranks", "--pq", f"{p},{q}", pq=(p, q)), req("slice", "--pq", f"{p},{q}", pq=(p, q))]
    else:
        for p, q in pairs:
            out.append(req("verify", "--pq", f"{p},{q}", "--grad", pq=(p, q)))
        out.append(req("verify", "--afun"))
        if len(pairs) >= 2:
            out.append(req("verify", "--multi", ",".join("1" * len(pairs))))
    return out


def oracle_extra_request() -> Request:
    quiver, dims, shifts = ORACLE_EXTRA
    return Request(("verify", "--quiver", quiver, "--dims", dims, "--multi", shifts), (quiver, dims))


def load_golden(workload: str) -> dict:
    with open(GOLDEN_DIR / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def chain_id(chain: tuple[str, str]) -> str:
    return f"{chain[0]} {chain[1]}"


def build_pass(workload: str, seed: int, golden: dict, tiny: bool = False) -> list[Request]:
    """The request list of one pass: the seed sets the order of the chains.

    A tiny (self-test) pass is the first chain that has requests, or four
    two-vertex oracle cases.
    """
    chains = all_chains(workload)
    if tiny and workload == "oracle":
        chains = [c for c in chains if c[0] in ("1->2", "1<-2") and c[1] in ("1,1", "2,2")]
    elif not tiny:
        random.Random(seed).shuffle(chains)
    requests = []
    for chain in chains:
        requests.extend(chain_requests(workload, chain, golden["invariants"][chain_id(chain)]))
        if tiny and requests and workload != "oracle":
            break
    if workload == "oracle" and not tiny:
        requests.append(oracle_extra_request())
    return requests
