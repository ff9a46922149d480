"""Type-A quiver combinatorics.

A quiver here is a chain of ``r`` vertices (1-indexed) with ``r - 1``
oriented edges.  Edge ``a`` joins vertices ``a`` and ``a + 1``; its
direction is +1 when it points right (a -> a+1) and -1 when it points
left.  All public vertex, edge, and dot indices are 1-based.
"""

from __future__ import annotations

from itertools import accumulate, compress, repeat
from operator import eq, mul, ne

from .errors import QuiverParseError, ShapeError
from .record import Record, setfield

RIGHT = 1
LEFT = -1
_DIRECTIONS = (RIGHT, LEFT)


class QuiverA(Record, derived=("turns", "_rights")):
    """Orientation data of a type-A quiver with ``r`` vertices."""

    # derived: turns (interior sinks and sources) and
    # _rights ([k] = rightward edges among 1..k, k = 0..r-1)
    __slots__ = ("r", "directions", "turns", "_rights")

    def __init__(self, r: int, directions: tuple[int, ...]):
        if r < 1:
            raise QuiverParseError("a quiver needs at least one vertex")
        if len(directions) != r - 1:
            raise QuiverParseError(f"expected {r - 1} edge directions, got {len(directions)}")
        if not all(map(_DIRECTIONS.__contains__, directions)):
            raise QuiverParseError("edge directions must be +1 (right) or -1 (left)")
        setfield(self, "r", r)
        setfield(self, "directions", directions)
        # vertex v is a turn when edges v - 1 and v differ
        setfield(self, "turns", frozenset(compress(range(2, r), map(ne, directions, directions[1:]))))
        setfield(self, "_rights", (0, *accumulate(map(eq, directions, repeat(RIGHT)))))

    def delta(self, a: int) -> int:
        """Direction of edge ``a`` (1 <= a <= r-1): +1 rightward, -1 leftward."""
        if not 1 <= a <= self.r - 1:
            raise ShapeError(f"edge {a} out of range 1..{self.r - 1}")
        return self.directions[a - 1]

    def head(self, a: int) -> int:
        return a + 1 if self.delta(a) == RIGHT else a

    def tail(self, a: int) -> int:
        return a if self.delta(a) == RIGHT else a + 1

    def edges(self):
        return range(1, self.r)

    def vertices(self):
        return range(1, self.r + 1)

    def dual(self) -> "QuiverA":
        """The quiver with every arrow reversed."""
        return QuiverA(self.r, tuple(-d for d in self.directions))

    def __str__(self) -> str:
        return "1" + "".join(f"{'->' if d == RIGHT else '<-'}{v}" for v, d in enumerate(self.directions, start=2))


# the letters of the compact form, each naming one edge's direction
_LETTERS = {"R": RIGHT, "r": RIGHT, "L": LEFT, "l": LEFT}


def parse_quiver(text: str) -> QuiverA:
    """Parse either arrow form ("1->2<-3") or compact form ("R,L").

    The arrow form must list vertices 1..r in order, in ASCII digits, with
    one arrow between each two.  The compact form gives one letter per
    edge, R for rightward and L for leftward.  Blanks may stand around
    every letter, arrow and number.
    """
    text = text.strip()
    if not text:
        raise QuiverParseError("empty quiver string")
    dirs = tuple(map(_LETTERS.get, map(str.strip, text.split(","))))
    if None not in dirs:
        return QuiverA(len(dirs) + 1, dirs)
    # blanks around each arrow split the text into arrows and numbers; the two
    # arrows overlap only in "<->", which no quiver string holds, so the replaces commute
    tokens = text.replace("->", " -> ").replace("<-", " <- ").split()
    if len(tokens) % 2 == 0 or not all(map(_is_token, tokens)):
        raise QuiverParseError(f"cannot parse quiver string {text!r}")
    dirs = []
    for pos, tok in enumerate(tokens):
        if pos % 2 == 0:
            if not tok.isdigit() or int(tok) != pos // 2 + 1:
                raise QuiverParseError(f"vertices must be numbered 1..r in order, got {tok!r}")
        elif tok == "->":
            dirs.append(RIGHT)
        elif tok == "<-":
            dirs.append(LEFT)
        else:
            raise QuiverParseError(f"expected -> or <- after vertex {pos // 2 + 1}, got {tok!r}")
    return QuiverA(len(dirs) + 1, tuple(dirs))


def _is_token(token: str) -> bool:
    """An arrow, or a number in ASCII digits."""
    return token == "->" or token == "<-" or token.isdigit() and token.isascii()


def parse_ints(text: str) -> tuple[int, ...]:
    """The comma-separated integers of text, each in ASCII digits with ASCII blanks around it.

    A sign, an underscore, a non-ASCII character or any other text raises
    ValueError: int() alone would also read " +1", "1_0" and "１" as numbers.
    """
    if not text.isascii() or "+" in text or "-" in text or "_" in text:
        raise ValueError(f"not comma-separated ASCII digits: {text!r}")
    return tuple(map(int, text.split(",")))


class DimVector(Record):
    """Positive dimension assigned to every vertex."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        if not all(map(isinstance, entries, repeat(int))) or (entries and min(entries) < 1):
            raise QuiverParseError("dimension vector entries must be integers >= 1")
        setfield(self, "entries", entries)

    @classmethod
    def parse(cls, text: str) -> "DimVector":
        try:
            return cls(parse_ints(text))
        except ValueError as exc:
            raise QuiverParseError(f"cannot parse dimension vector {text!r}") from exc

    def at(self, v: int) -> int:
        """Dimension at vertex ``v`` (1-based)."""
        return self.entries[v - 1]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self) -> str:
        return ",".join(str(n) for n in self.entries)


class Interval(Record, order=True):
    """Vertex interval [i, j]; labels the indecomposable supported on it."""

    __slots__ = ("i", "j")

    def __init__(self, i: int, j: int):
        if not 1 <= i <= j:
            raise QuiverParseError(f"bad interval [{i}, {j}]")
        setfield(self, "i", i)
        setfield(self, "j", j)

    def __contains__(self, v: int) -> bool:
        return self.i <= v <= self.j

    def __str__(self) -> str:
        return f"[{self.i},{self.j}]"


def check_dims(q: QuiverA, n: DimVector) -> None:
    if len(n) != q.r:
        raise ShapeError(f"dimension vector of length {len(n)} on a quiver with {q.r} vertices")


def sinks_sources(q: QuiverA) -> tuple[int, ...]:
    """The increasing vertex sequence 1 = nu(0) < ... < nu(h+1) = r.

    Interior entries are exactly the sinks and sources of the quiver;
    the two endpoints are always included.
    """
    return tuple(sorted(q.turns | {1, q.r}))


def _entry_seq(n, r: int):
    entries = tuple(n)
    if len(entries) != r:
        raise ShapeError(f"vector of length {len(entries)} on a quiver with {r} vertices")
    if not all(map(isinstance, entries, repeat(int))) or min(entries) < 0:
        raise ShapeError("vector entries must be integers >= 0")
    return entries


def euler_form(q: QuiverA, n, m) -> int:
    """<n, m> = sum_i n_i m_i - sum_a n_{t(a)} m_{h(a)}.

    Accepts DimVectors or plain integer sequences (entries >= 0), so the
    0/1 characteristic vectors of intervals fit.
    """
    nn = _entry_seq(n, q.r)
    mm = _entry_seq(m, q.r)
    total = sum(map(mul, nn, mm))
    for v, d in enumerate(q.directions):
        # edge v + 1 joins the entries v and v + 1
        total -= nn[v] * mm[v + 1] if d == RIGHT else nn[v + 1] * mm[v]
    return total


def interval_euler_form(q: QuiverA, u: Interval, w: Interval) -> int:
    """euler_form of the interval vectors of u and w, in O(1).

    |u ∩ w|, minus the rightward edges v with v in u and v + 1 in w, minus
    the leftward edges v with v + 1 in u and v in w.
    """
    if (u.j if u.j > w.j else w.j) > q.r:
        raise ShapeError(f"interval {u if u.j > q.r else w} does not fit in {q.r} vertices")
    return _interval_euler(q._rights, u.i, u.j, w.i, w.j)


def _interval_euler(rights, ui: int, uj: int, wi: int, wj: int) -> int:
    """interval_euler_form of [ui, uj] and [wi, wj], given the quiver's rightward-edge counts."""
    lo, hi = (ui if ui > wi - 1 else wi - 1), (uj if uj < wj - 1 else wj - 1)
    right = rights[hi] - rights[lo - 1] if lo <= hi else 0
    lo, hi = (ui - 1 if ui - 1 > wi else wi), (uj - 1 if uj - 1 < wj else wj)
    left = hi - lo + 1 - rights[hi] + rights[lo - 1] if lo <= hi else 0
    lo, hi = (ui if ui > wi else wi), (uj if uj < wj else wj)
    return (hi - lo + 1 if lo <= hi else 0) - right - left
