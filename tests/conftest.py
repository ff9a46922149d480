"""Shared helpers: recurring worked examples, seeded random instances and small check helpers.

The check helpers (divides, without, transpose, strand_multiset,
empty_diagram, constant_value) were library methods and functions that
only the tests called; they keep their bodies as plain functions.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product

from qbfun import DimVector, LaceDiagram, QuiverA, complete_diagram, enumerate_invariants, exact_diagram, parse_quiver, strands
from qbfun import linalg
from qbfun.errors import ShapeError
from qbfun.quiver import LEFT, RIGHT


def instance(text, dims):
    return parse_quiver(text), DimVector(tuple(dims))


# worked examples that recur throughout the tests
EQUI5 = ("1->2->3->4->5", (2, 5, 6, 6, 2))
ALT5 = ("1->2<-3->4<-5", (2, 5, 7, 4, 2))
A7 = ("1->2<-3->4->5->6<-7", (1, 3, 5, 4, 4, 3, 1))

# Four-vertex chains with dims in {1,2,3}^4 whose (1,4) invariant runs the
# operator identity past the default state-terms budget (126k-142k > 20k);
# the oracle gate family leaves them out, and test_oracle pins why.
ORACLE_OVER_BUDGET = frozenset(
    {
        ("1->2->3->4", (2, 3, 3, 2)),
        ("1->2->3<-4", (2, 3, 3, 1)),
        ("1->2<-3->4", (2, 3, 3, 2)),
        ("1->2<-3<-4", (1, 3, 3, 2)),
        ("1<-2->3->4", (1, 3, 3, 2)),
        ("1<-2->3<-4", (2, 3, 3, 2)),
        ("1<-2<-3->4", (2, 3, 3, 1)),
        ("1<-2<-3<-4", (2, 3, 3, 2)),
    }
)


def oracle_family():
    """The criterion-5 oracle gate family: small instances whose expanded invariants stay inside the term budget."""
    cases = []
    for direction in ("1->2", "1<-2"):
        for m in (1, 2, 3, 4):
            cases.append(instance(direction, (m, m)))
    for d1 in ("->", "<-"):
        for d2 in ("->", "<-"):
            text = f"1{d1}2{d2}3"
            for n1 in (1, 2, 3):
                for n2 in (1, 2, 3):
                    for n3 in (1, 2, 3):
                        cases.append(instance(text, (n1, n2, n3)))
    for arrows in product(("->", "<-"), repeat=3):
        text = "1{}2{}3{}4".format(*arrows)
        for dims in product((1, 2, 3), repeat=4):
            if (text, dims) not in ORACLE_OVER_BUDGET:
                cases.append(instance(text, dims))
    return cases


def random_quiver(rng: random.Random, rmin=2, rmax=7) -> QuiverA:
    r = rng.randint(rmin, rmax)
    return QuiverA(r, tuple(rng.choice((1, -1)) for _ in range(r - 1)))


def random_instance(rng: random.Random, rmax=7, nmax=6):
    """A random (orientation, dimensions) pair with at least one invariant."""
    while True:
        q = random_quiver(rng, 2, rmax)
        n = DimVector(tuple(rng.randint(1, nmax) for _ in range(q.r)))
        invs = enumerate_invariants(q, n)
        if invs:
            return q, n, invs


def reference_chains():
    """Chains on which the renderer and the superposition must agree with tests/reference.py.

    Seeded random chains with r <= 12 and dims <= 8, the one-vertex chain,
    all-rightward and all-leftward chains from r = 2 up, and three seeded
    r = 80 chains with dims 1..8 (the largest the engine benchmark draws).
    """
    rng = random.Random(2210)
    chains = [random_instance(rng, rmax=12, nmax=8)[:2] for _ in range(150)]
    chains += [(QuiverA(1, ()), DimVector((k,))) for k in (1, 3)]
    for r in (2, 3, 5, 9, 12):
        for direction in (RIGHT, LEFT):
            for _ in range(3):
                chains.append((QuiverA(r, (direction,) * (r - 1)), DimVector(tuple(rng.randint(1, 8) for _ in range(r)))))
    for seed in (80, 81, 82):
        chain_rng = random.Random(seed)
        q = QuiverA(80, tuple(chain_rng.choice((RIGHT, LEFT)) for _ in range(79)))
        chains.append((q, DimVector(tuple(chain_rng.randint(1, 8) for _ in range(80)))))
    return chains


def doctored_diagram(rng: random.Random, rmax=12, nmax=8):
    """A seeded diagram that need be no invariant's: a random partial matching on each edge.

    Its pairs cross, a quarter of its edges are empty, and the dots that
    no pair uses are strands of their own.
    """
    q = random_quiver(rng, 1, rmax)
    columns = tuple(rng.randint(1, nmax) for _ in range(q.r))
    conns = []
    for left, right in zip(columns, columns[1:]):
        k = 0 if rng.random() < 0.25 else rng.randint(1, min(left, right))
        conns.append(frozenset(zip(rng.sample(range(1, left + 1), k), rng.sample(range(1, right + 1), k))))
    return q, DimVector(columns), LaceDiagram(columns, tuple(conns))


def strand_diagrams():
    """(quiver, dims, diagram): the complete and every exact diagram of reference_chains(), and 300 doctored ones."""
    found = []
    for q, n in reference_chains():
        found.append((q, n, complete_diagram(q, n)))
        found.extend((q, n, exact_diagram(q, n, idx)) for idx in enumerate_invariants(q, n))
    rng = random.Random(2512)
    found.extend(doctored_diagram(rng) for _ in range(300))
    return found


def random_invertible(rng: random.Random, size: int, lo=-3, hi=3):
    while True:
        m = [[rng.randint(lo, hi) for _ in range(size)] for _ in range(size)]
        if linalg.det(m) != 0:
            return linalg.mat(m)


def divides(b, other) -> bool:
    """Exact polynomial divisibility of products of linear factors."""
    mine, theirs = b.constants(), other.constants()
    return all(theirs[c] >= e for c, e in mine.items())


def without(d: LaceDiagram, a: int, pair) -> LaceDiagram:
    """Copy with one connection removed from edge a."""
    if pair not in d.connections[a - 1]:
        raise ShapeError(f"edge {a} has no connection {pair}")
    conns = list(d.connections)
    conns[a - 1] = conns[a - 1] - {tuple(pair)}
    return LaceDiagram(d.columns, tuple(conns))


def transpose(a):
    return tuple(zip(*a)) if a else ()


def strand_multiset(d: LaceDiagram) -> Counter:
    """Multiplicity of each interval among the strands."""
    return Counter(s.interval for s in strands(d))


def empty_diagram(q: QuiverA, n) -> LaceDiagram:
    cols = tuple(n)
    return LaceDiagram(cols, tuple(frozenset() for _ in q.edges()))


def constant_value(p):
    """The coefficient of the empty monomial (the value if constant)."""
    if any(p.terms):
        raise ShapeError("polynomial is not constant")
    return p.terms.get(0, 0)
