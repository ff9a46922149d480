"""b-functions of one and several variables, and a-functions.

One-variable b-functions come from a closed product formula over the
columns between p and q.  The several-variable b-function is produced by
superposition: per column, linear forms s_i + c with equal constant term
are merged by summing their s-variables, and each merged form A with
support S becomes a rising factorial [A]_{sum of m_i over S}.
"""

from __future__ import annotations

from collections import Counter

from .errors import ShapeError
from .invariants import InvariantIndex, check_invariant, enumerate_invariants
from .poly import MultiPolynomial
from .quiver import DimVector, QuiverA
from .record import Record, setfield


class LinearForm(Record):
    """sum_i coeffs[i-1] * s_i + constant, with non-negative integer data."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: tuple[int, ...], constant: int):
        if constant < 0 or (coeffs and min(coeffs) < 0):
            raise ShapeError("linear form needs non-negative coefficients and constant")
        setfield(self, "coeffs", coeffs)
        setfield(self, "constant", constant)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, c in enumerate(self.coeffs) if c)

    def sort_key(self):
        support = self.support
        return (len(support), support, self.constant)

    def value(self, s):
        """The form at s with * and + only: a Fraction at ints and Fractions, a polynomial at polynomials.

        Any other value of s, a float, a Decimal or a string among them, raises ShapeError.
        """
        import fractions  # only the oracle evaluates forms, so only its requests load fractions

        for x in s:
            if not isinstance(x, (int, fractions.Fraction, MultiPolynomial)):
                kind = type(x).__name__
                raise ShapeError(f"linear forms are evaluated exactly; pass ints, Fractions or polynomials, not {kind}")
        return sum((c * x for c, x in zip(self.coeffs, s) if c), fractions.Fraction(self.constant))

    def label_text(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs, start=1):
            if c == 0:
                continue
            name = "s" if len(self.coeffs) == 1 else f"s{i}"
            parts.append(name if c == 1 else f"{c}*{name}")
        if self.constant or not parts:
            parts.append(str(self.constant))
        return "+".join(parts)


class FactoredBFunction(Record):
    """Product of shifted linear forms, canonically ordered.

    One-variable b-functions use a single label; each factor (s + c)^e is
    a LinearForm with coeffs (1,).  In several variables a factor is read
    as the rising factorial [form]_M with M the sum of m_i over the
    form's support.
    """

    __slots__ = ("num_labels", "factors")

    def __init__(self, num_labels: int, factors: tuple):
        for form, mult in factors:
            if len(form.coeffs) != num_labels:
                raise ShapeError("factor coefficient length does not match label count")
            if mult < 1 or form.constant < 1 or not any(form.coeffs):
                raise ShapeError("factors need multiplicity >= 1, constant >= 1, nonempty support")
        setfield(self, "num_labels", num_labels)
        setfield(self, "factors", factors)

    @classmethod
    def from_counter(cls, num_labels: int, counts: Counter) -> "FactoredBFunction":
        factors = tuple(
            (form, counts[form]) for form in sorted(counts, key=LinearForm.sort_key)
        )
        return cls(num_labels, factors)

    @classmethod
    def one_variable(cls, constants: Counter) -> "FactoredBFunction":
        """The product of (s + c)^e over the constants c, factors in increasing c (the order of from_counter)."""
        return cls(1, tuple([(LinearForm((1,), c), e) for c, e in sorted(constants.items())]))

    def degree(self) -> int:
        """Number of linear factors counted with multiplicity."""
        return sum(mult for _, mult in self.factors)

    def constants(self) -> Counter:
        """Multiset constant -> multiplicity (one-variable only)."""
        if self.num_labels != 1:
            raise ShapeError("constants() is for one-variable b-functions")
        return Counter({form.constant: mult for form, mult in self.factors})

    def specialize_label(self, i: int) -> "FactoredBFunction":
        """Set every m_j = delta_{ij} and s_j = s * delta_{ij}.

        Factors whose support misses label i have bracket length 0 and
        drop out; the rest become (s + constant).
        """
        if not 1 <= i <= self.num_labels:
            raise ShapeError(f"label {i} out of range")
        constants = Counter()
        for form, mult in self.factors:
            if i in form.support:
                constants[form.constant] += mult
        return FactoredBFunction.one_variable(constants)

    def __mul__(self, other: "FactoredBFunction") -> "FactoredBFunction":
        if self.num_labels != other.num_labels:
            raise ShapeError("label counts differ")
        counts = Counter(dict(self.factors))
        for form, mult in other.factors:
            counts[form] += mult
        return FactoredBFunction.from_counter(self.num_labels, counts)


def evaluate_bracket_product(b: FactoredBFunction, m, s):
    """Product over factors of [form(s)]_{sum m over support}, at numbers or polynomials s_i."""
    if len(m) != b.num_labels or len(s) != b.num_labels:
        raise ShapeError(f"need {b.num_labels} bracket lengths and variables")
    if any(not isinstance(k, int) or k < 0 for k in m):
        raise ShapeError("bracket lengths must be non-negative integers")
    import fractions

    total = fractions.Fraction(1)
    for form, mult in b.factors:
        length = sum(m[i - 1] for i in form.support)
        base = form.value(s)
        rising = fractions.Fraction(1)
        for t in range(length):
            rising *= base + t
        total *= rising ** mult
    return total


def b_one_variable(q: QuiverA, n: DimVector, idx: InvariantIndex) -> FactoredBFunction:
    """Closed product formula for the b-function of f_{(p,q)}.

    Walking t = p+1..q, each column contributes factors
    (s + n_t - L + lambda) for lambda = 1..L, where L is the walk's level
    into column t: the product over the F-set of the exact diagram.
    """
    return b_from_fset(fset_of_invariant(q, n, idx))


class FSet(Record):
    """Per column k = 2..r, an inclusive integer range or None for empty."""

    __slots__ = ("r", "ranges")

    def __init__(self, r: int, ranges: tuple):
        if len(ranges) != r - 1:
            raise ShapeError("need one range per column 2..r")
        for rng in ranges:
            if rng is not None and rng[0] > rng[1]:
                raise ShapeError(f"bad range {rng}")
        setfield(self, "r", r)
        setfield(self, "ranges", ranges)

    def column(self, k: int):
        """Range for column k (2 <= k <= r)."""
        return self.ranges[k - 2]


def f_set(N) -> FSet:
    """Column ranges read off a rank parameter.

    Column k carries {N_kk - N_{k-1,k} + 1, ..., N_kk}, empty when the
    adjacent rank N_{k-1,k} vanishes.
    """
    ranges = []
    for k in range(2, N.r + 1):
        adjacent = N.N(k - 1, k)
        ranges.append(None if adjacent == 0 else (N.N(k, k) - adjacent + 1, N.N(k, k)))
    return FSet(N.r, tuple(ranges))


def fset_of_invariant(q: QuiverA, n: DimVector, idx: InvariantIndex) -> FSet:
    """F-set of the exact diagram of (p, q).

    Column t = p+1..q carries {n_t - c + 1, ..., n_t} for the walk's
    level c into t: the diagram has c connections on edge t-1, and the
    adjacent rank of a diagram point is its connection count.
    """
    ranges = [None] * (q.r - 1)
    for t, c in check_invariant(q, n, idx):
        ranges[t - 2] = (n.at(t) - c + 1, n.at(t))
    return FSet(q.r, tuple(ranges))


def b_from_fset(fs: FSet) -> FactoredBFunction:
    """Product of (s + c) over every member of every column range."""
    constants = Counter()
    for rng in fs.ranges:
        if rng is not None:
            constants.update(range(rng[0], rng[1] + 1))
    return FactoredBFunction.one_variable(constants)


def merge_columns(fsets):
    """Merge the columns of several F-sets into multi-variable linear forms.

    Yields (k, form) for columns k = 2..r, each column's forms ordered by
    constant term.  At each column, forms with equal constant term are
    combined by summing their label variables; empty columns are ignored.
    The F-sets carry the labels 1..l in order.
    On edge k-1 of a diagram a constant names exactly one arrow, so this
    is also the merge of the F-sets' exact diagrams arrow by arrow.
    One sweep over each F-set's non-empty ranges collects the labels of
    every (column, constant); a range holds each constant once, so a
    label is collected at most once per form.
    """
    fsets = tuple(fsets)
    if not fsets:
        return
    r = fsets[0].r
    if any(fs.r != r for fs in fsets):
        raise ShapeError("all F-sets must share the column count")
    columns = [{} for _ in range(r - 1)]  # column k = 2..r: constant -> labels, 0-based
    for label, fs in enumerate(fsets):
        for by_constant, rng in zip(columns, fs.ranges):
            if rng is not None:
                for c in range(rng[0], rng[1] + 1):
                    by_constant.setdefault(c, []).append(label)
    for k, by_constant in enumerate(columns, start=2):
        for c in sorted(by_constant):
            coeffs = [0] * len(fsets)
            for label in by_constant[c]:
                coeffs[label] = 1
            yield k, LinearForm(tuple(coeffs), c)


def superpose(fsets) -> tuple[LinearForm, ...]:
    """The merged forms of merge_columns, concatenated over columns."""
    return tuple(form for _, form in merge_columns(fsets))


def invariant_fsets(q: QuiverA, n: DimVector) -> list[FSet]:
    """F-sets of all invariants, in label order (sorted (p, q))."""
    return [fset_of_invariant(q, n, idx) for idx in enumerate_invariants(q, n)]


def b_multivariate(q: QuiverA, n: DimVector) -> FactoredBFunction:
    """Superposed b-function of the full tuple of fundamental invariants.

    Labels are assigned in sorted (p, q) order.  With no invariants the
    result is the empty product.
    """
    fsets = invariant_fsets(q, n)
    return FactoredBFunction.from_counter(len(fsets), Counter(superpose(fsets)))


class AFunction(Record):
    """Monomial product a_m(s) = prod over supports S of (sum_{i in S} s_i)^{e_S * sum_{i in S} m_i}.

    e_S counts the connections shared by exactly the exact diagrams of
    the labels in S; a connection used by D^(i) contributes the merged
    form of all diagrams through it, so a_{eps_i} multiplies one such
    form per connection of D^(i).
    """

    __slots__ = ("num_labels", "factors")  # factors: ((LinearForm with constant 0, e_S), ...)

    def __init__(self, num_labels: int, factors: tuple):
        setfield(self, "num_labels", num_labels)
        setfield(self, "factors", factors)

    def monomial(self, m) -> tuple:
        """((form, exponent), ...) for integer bracket lengths m."""
        if len(m) != self.num_labels:
            raise ShapeError(f"need {self.num_labels} entries")
        out = []
        for form, e in self.factors:
            exponent = e * sum(m[i - 1] for i in form.support)
            if exponent:
                out.append((form, exponent))
        return tuple(out)

    def eps_exponents(self, i: int) -> tuple:
        """Factors of a_{eps_i}: forms whose support contains i, with e_S."""
        return tuple((form, e) for form, e in self.factors if i in form.support)


def a_function(q: QuiverA, n: DimVector) -> AFunction:
    """Count the superposed forms by support: one per arrow of the union of exact diagrams."""
    fsets = invariant_fsets(q, n)
    counts = Counter(LinearForm(form.coeffs, 0) for form in superpose(fsets))
    factors = tuple((form, counts[form]) for form in sorted(counts, key=LinearForm.sort_key))
    return AFunction(len(fsets), factors)
