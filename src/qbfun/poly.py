"""Sparse multivariate polynomials over exact rationals, with packed monomials.

A monomial is one int (Kronecker substitution): the exponent of variable k
sits in a 16-bit field, variable 0 in the most significant one.  Integer
order on these keys is lexicographic order on exponent vectors, the
monomial order used for exact division, and multiplying two monomials is
adding their keys.  The top bit of each field is a guard: an exponent is at
most 2^15 - 1, and a sum that reaches a guard bit raises
BudgetExceededError instead of carrying into the next variable.

Coefficients are ints where integral, else Fractions: from exact division,
from ``ratio``'s beta, and from a product or sum with a Fraction, such as
``engine * constant`` in oracle.apply_bernstein_multi.  Only this module
reads the key format: other modules go through ``monomials`` and
``from_monomials``.  Every product and every sum of products runs through
one in-place loop, ``_add_product``; ``Accumulator`` offers it to other
modules.  A scalar is any ``numbers.Rational`` (ints and Fractions, not
floats or Decimals).  Only the oracle uses this module, so the scalar
tests import numbers, the functions that build a Fraction import
fractions, and exact_div imports heapq, each in its body: importing this
module loads none of them.  The bodies write ``import fractions``, not
``from fractions import Fraction``: on Python 3.11 the second form costs
about 0.8 us a call to look up a ``__path__`` the module does not have,
and the oracle makes thousands of such calls a pass.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .errors import BudgetExceededError, DiagnosticError, ShapeError

FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1


def _coef(value):
    """An exact coefficient: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    import fractions

    value = fractions.Fraction(value)
    return value.numerator if value.denominator == 1 else value


class VarTable:
    """Immutable ordered list of variable names shared by polynomials.

    It fixes the field of each variable in a packed monomial key.
    """

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ShapeError("duplicate variable names")
        self.index = {name: k for k, name in enumerate(self.names)}
        width = len(self.names)
        self.shifts = tuple(FIELD_BITS * (width - 1 - k) for k in range(width))
        self.guard = int.from_bytes(b"\x80\x00" * width, "big")  # the top bit of every 16-bit field

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        """Tables with the same names pack monomials alike, so they are equal."""
        if isinstance(other, VarTable):
            return self is other or self.names == other.names
        return NotImplemented

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarTable({len(self.names)} vars)"

    def _pack(self, exps) -> int:
        if len(exps) != len(self.names):
            raise ShapeError("need one exponent per variable")
        key = 0
        for e in exps:
            if e < 0:
                raise ShapeError("exponents must be non-negative")
            if e > MAX_EXPONENT:
                raise BudgetExceededError("exponent", e, MAX_EXPONENT)
            key = (key << FIELD_BITS) | e
        return key

    def _unpack(self, key) -> tuple:
        return tuple((key >> shift) & FIELD_MASK for shift in self.shifts)

    def _check_guard(self, keys):
        """Raise if any key, a sum of two valid keys, reached a guard bit."""
        guard = self.guard
        if reduce(or_, keys, 0) & guard:
            worst = max(max(self._unpack(k)) for k in keys if k & guard)
            raise BudgetExceededError("exponent", worst, MAX_EXPONENT)


class MultiPolynomial:
    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms=None):
        """``terms`` maps packed monomial keys of ``table`` to coefficients."""
        self.table = table
        self.terms = {e: _coef(c) for e, c in (terms or {}).items() if c}

    @classmethod
    def _make(cls, table, terms):
        """Wrap a dict of nonzero exact coefficients without copying it."""
        poly = object.__new__(cls)
        poly.table = table
        poly.terms = terms
        return poly

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, table):
        return cls._make(table, {})

    @classmethod
    def const(cls, table, value):
        value = _coef(value)
        return cls._make(table, {0: value} if value else {})

    @classmethod
    def variable(cls, table, name):
        return cls._make(table, {1 << table.shifts[table.index[name]]: 1})

    @classmethod
    def from_monomials(cls, table, monomials):
        """Sum of coefficient * monomial over (exponent tuple, coefficient) pairs."""
        terms = {}
        for exps, c in monomials:
            key = table._pack(exps)
            terms[key] = terms.get(key, 0) + c
        return cls(table, terms)

    def monomials(self):
        """The (exponent tuple, coefficient) pairs in ascending lex order."""
        unpack = self.table._unpack
        return [(unpack(e), self.terms[e]) for e in sorted(self.terms)]

    # -- predicates and measures ----------------------------------------
    def is_zero(self):
        return not self.terms

    def num_terms(self):
        return len(self.terms)

    def total_degree(self):
        unpack = self.table._unpack
        return max((sum(unpack(e)) for e in self.terms), default=0)

    def __eq__(self, other):
        if isinstance(other, MultiPolynomial):
            return (self.table is other.table or self.table == other.table) and self.terms == other.terms
        import numbers

        if isinstance(other, numbers.Rational):
            return self.terms == ({0: other} if other else {})
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    # -- ring operations -------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, MultiPolynomial):
            if other.table is not self.table and other.table != self.table:
                raise ShapeError("polynomials from different variable tables")
            return other
        import numbers

        if isinstance(other, numbers.Rational):
            return MultiPolynomial.const(self.table, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                del terms[e]
        return MultiPolynomial._make(self.table, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPolynomial._make(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, MultiPolynomial):
            other = self._coerce(other)
            out = {}
            _add_product(out, self.terms, other.terms)
            return _freeze(self.table, out)
        import numbers

        if isinstance(other, numbers.Rational):
            other = _coef(other)
            if not other:
                return MultiPolynomial.zero(self.table)
            return MultiPolynomial._make(self.table, {e: c * other for e, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ShapeError("exponent must be a non-negative integer")
        result = MultiPolynomial.const(self.table, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    def derivative(self, var_index: int):
        shift = self.table.shifts[var_index]
        unit = 1 << shift
        out = {}
        for e, c in self.terms.items():
            k = (e >> shift) & FIELD_MASK
            if k:
                out[e - unit] = c * k  # distinct monomials stay distinct
        return MultiPolynomial._make(self.table, out)

    def eval_at(self, values) -> Fraction:
        if len(values) != len(self.table):
            raise ShapeError("need one value per variable")
        import fractions

        vals = [fractions.Fraction(v) for v in values]
        total = fractions.Fraction(0)
        for e, c in self.monomials():
            term = c
            for v, k in zip(vals, e):
                if k:
                    term *= v ** k
            total += term
        return total

    def exact_div(self, divisor: "MultiPolynomial") -> "MultiPolynomial":
        """Quotient self / divisor, requiring exact divisibility.

        Lex order makes the leading term of a product the product of
        leading terms, so dividing leads step by step either terminates
        with zero remainder or proves non-divisibility.  Leaders come off
        a max-heap of remainder keys; a popped key no longer in the
        remainder was cancelled and is skipped.  Each step only adds keys
        below the current leader, so no key is processed twice.
        """
        import fractions
        from heapq import heapify, heappop, heappush

        divisor = self._coerce(divisor)
        if divisor is None or divisor.is_zero():
            raise DiagnosticError("division by zero polynomial")
        table = self.table
        guard = table.guard
        lead_d = max(divisor.terms)
        coef_d = divisor.terms[lead_d]
        tail = [(e, c) for e, c in divisor.terms.items() if e != lead_d]
        # per-field maximum of the divisor: exp + e overflows for some e iff exp + top does
        top = table._pack([max(col) for col in zip(*(table._unpack(e) for e in divisor.terms))])
        rem = dict(self.terms)
        heap = [-e for e in rem]
        heapify(heap)
        quot = {}
        while heap:
            lead = -heappop(heap)
            c = rem.pop(lead, None)
            if c is None:
                continue
            diff = (lead | guard) - lead_d
            if diff & guard != guard:
                raise DiagnosticError("polynomial division is not exact")
            exp = diff ^ guard
            table._check_guard((exp + top,))
            coef, r = divmod(c, coef_d)
            if r:
                coef = fractions.Fraction(c, coef_d)
            quot[exp] = coef
            for e, cd in tail:
                key = exp + e
                s = rem.get(key)
                if s is None:
                    rem[key] = -coef * cd
                    heappush(heap, -key)
                else:
                    s -= coef * cd
                    if s:
                        rem[key] = s
                    else:
                        del rem[key]
        return MultiPolynomial._make(table, quot)

    def ratio(self, other: "MultiPolynomial"):
        """The constant beta with self == beta * other, or None if there is none.

        beta is read off one key of other and then every key is compared,
        so no polynomial division runs; beta is an int when integral, else
        a Fraction.  Zero on either side gives None.
        """
        other = self._coerce(other)
        if not self.terms or not other.terms or len(self.terms) != len(other.terms):
            return None
        key, c = next(iter(other.terms.items()))
        if key not in self.terms:
            return None
        import fractions

        beta = _coef(fractions.Fraction(self.terms[key], c))
        get = self.terms.get
        for e, c in other.terms.items():
            if get(e) != beta * c:
                return None
        return beta

    # -- display ----------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        names = self.table.names
        for e, c in reversed(self.monomials()):
            factors = [f"{names[i]}^{k}" if k > 1 else names[i] for i, k in enumerate(e) if k]
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


class Accumulator:
    """A sum of products a * b built in place in one dict.

    Adding a product copies nothing that is already summed.  A key that
    cancels to zero stays in the dict until ``result()``, so the guard-bit
    check there sees every key ever summed.
    """

    __slots__ = ("table", "_terms")

    def __init__(self, table: VarTable):
        self.table = table
        self._terms = {}

    def add_product(self, a: MultiPolynomial, b: MultiPolynomial, limit=None):
        """Add a * b; past ``limit`` held keys, stop after the current term of ``a``.

        The count includes keys that cancelled to zero, so it bounds the
        terms of the sum from above.
        """
        table = self.table
        if a.table is not table and a.table != table or b.table is not table and b.table != table:
            raise ShapeError("polynomials from different variable tables")
        _add_product(self._terms, a.terms, b.terms, limit)

    def held(self):
        """The number of keys summed so far, cancelled ones included."""
        return len(self._terms)

    def num_terms(self):
        """The number of nonzero terms of the sum so far."""
        return sum(1 for c in self._terms.values() if c)

    def result(self) -> MultiPolynomial:
        """The sum as a polynomial; the accumulator starts over empty."""
        out, self._terms = self._terms, {}
        return _freeze(self.table, out)


def _add_product(out, left, right, limit=None):
    """Add the product of two term dicts into ``out``, in place.

    Past ``limit`` keys in ``out`` it raises after the current left term.
    """
    get = out.get
    right = list(right.items())
    for e1, c1 in left.items():
        for e2, c2 in right:
            key = e1 + e2
            out[key] = get(key, 0) + c1 * c2
        if limit is not None and len(out) > limit:
            raise BudgetExceededError("state terms", len(out), limit)


def _freeze(table, out) -> MultiPolynomial:
    """Wrap a sum of products whose dict still holds every key summed.

    Cancelled keys included, so the guard-bit check sees them all.
    """
    table._check_guard(out)
    if 0 in out.values():
        out = {e: c for e, c in out.items() if c}
    return MultiPolynomial._make(table, out)
