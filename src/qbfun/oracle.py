"""Independent symbolic verification at desk scale.

Expands invariants as exact multivariate polynomials, applies each one
as a differential operator to its own symbolic powers (f is its own
dual invariant in the paired variables), and extracts the b-function
from the resulting identity.  Also differentiates invariants exactly at
the generic point to verify the gradient-log and a-function
descriptions.  Everything is exact rational arithmetic with hard term
budgets.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import isqrt, prod

from . import linalg
from .bfun import FactoredBFunction, a_function, b_multivariate, evaluate_bracket_product
from .diagrams import complete_diagram, diagram_to_matrices, exact_diagram
from .errors import (
    BudgetExceededError,
    OracleIdentityError,
    QuiverParseError,
    ShapeError,
)
from .invariants import MatrixRep, assemble, block_spec, enumerate_invariants, evaluate_invariant
from .poly import Accumulator, MultiPolynomial, VarTable
from .quiver import DimVector, QuiverA, parse_ints
from .record import Record, setfield

# Largest degree sum m_i * deg f_i of the --multi operator prod f_i^{m_i}.
# Its work grows about as the cube of the shifts even where every
# polynomial keeps a few terms and no term budget fires; the shifts
# m in {0,1,2}^k of the criterion-5 family need at most 18.
MAX_OPERATOR_DEGREE = 64


class Budget(Record):
    """Term and size limits; exceeding one aborts with a structured error."""

    __slots__ = ("invariant_terms", "state_terms", "matrix_size")

    def __init__(self, invariant_terms: int = 200, state_terms: int = 20000, matrix_size: int = 6):
        setfield(self, "invariant_terms", invariant_terms)
        setfield(self, "state_terms", state_terms)
        setfield(self, "matrix_size", matrix_size)

    @classmethod
    def parse(cls, text: str) -> "Budget":
        """Read NSTATE, NF,NSTATE or NF,NSTATE,SIZE; each a positive integer."""
        try:
            parts = parse_ints(text)
        except ValueError as exc:
            raise QuiverParseError(f"cannot parse budget {text!r}") from exc
        if len(parts) > 3 or min(parts) < 1:
            raise QuiverParseError(f"budget {text!r} needs 1..3 comma-separated positive integers")
        if len(parts) == 1:
            return cls(state_terms=parts[0])
        return cls(*parts)


def variable_table(q: QuiverA, n: DimVector) -> VarTable:
    """One variable per matrix entry, edges then rows then columns."""
    names = []
    for a in q.edges():
        for i in range(1, n.at(q.head(a)) + 1):
            for j in range(1, n.at(q.tail(a)) + 1):
                names.append(f"x{a}_{i}_{j}")
    return VarTable(names)


def _symbolic_rep(q: QuiverA, n: DimVector, table: VarTable) -> MatrixRep:
    mats = []
    for a in q.edges():
        mats.append(
            [
                [MultiPolynomial.variable(table, f"x{a}_{i}_{j}") for j in range(1, n.at(q.tail(a)) + 1)]
                for i in range(1, n.at(q.head(a)) + 1)
            ]
        )
    return MatrixRep(tuple(n.entries), tuple(linalg.mat(m) for m in mats))


def poly_det(rows, limit=None):
    """Determinant by expanding over column subsets; entries may be 0, ints or polynomials.

    Layer i holds the minors of the first i rows, one per column subset,
    each summed in place by an Accumulator.  Past ``limit`` keys held by
    one layer (cancelled keys included) it raises BudgetExceededError
    ("determinant terms"), checked after each term of every product.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ShapeError("determinant of a non-square matrix")
    table = next((e.table for row in rows for e in row if isinstance(e, MultiPolynomial)), None)
    if table is None:
        return linalg.det(rows)

    def signed(e):
        P = e if isinstance(e, MultiPolynomial) else MultiPolynomial.const(table, e)
        return P, -P

    entries = [[signed(e) if e else None for e in row] for row in rows]
    layers = {0: MultiPolynomial.const(table, 1)}
    for i in range(n):
        nxt = {}
        total = 0  # keys held by the accumulators of nxt
        for mask, minor in layers.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit or entries[i][j] is None:
                    continue
                entry = entries[i][j][bin(mask >> (j + 1)).count("1") & 1]
                acc = nxt.get(mask | bit)
                if acc is None:
                    acc = nxt[mask | bit] = Accumulator(table)
                rest = total - acc.held()
                try:
                    acc.add_product(minor, entry, None if limit is None else limit - rest)
                except BudgetExceededError as exc:
                    raise BudgetExceededError("determinant terms", rest + exc.actual, limit) from None
                total = rest + acc.held()
        layers = {mask: P for mask, acc in nxt.items() if (P := acc.result())}
        if not layers:
            return 0
    return layers.get((1 << n) - 1, 0)


def _block_det(spec, rep: MatrixRep, table: VarTable, limit=None) -> MultiPolynomial:
    """Determinant of the block matrix of spec at rep, as a polynomial over table."""
    value = poly_det(assemble(spec, rep), limit)
    return value if isinstance(value, MultiPolynomial) else MultiPolynomial.const(table, value)


def expand_invariant(q, n, idx, table=None, budget=None) -> MultiPolynomial:
    """Fully expanded determinant polynomial of f_{(p,q)}, within the size and term budgets.

    Every budget is checked while the determinant is built.  An entry of
    block (sigma, tau) at the symbolic point has exactly prod n_v terms over
    the vertices strictly between sigma and tau (distinct edges carry
    distinct variables, so distinct paths give distinct monomials); that
    count is checked vertex by vertex before any path product is formed.
    """
    spec = block_spec(q, n, idx)
    budget = budget or Budget()
    size = sum(spec.row_dims(n))
    if size > budget.matrix_size:
        raise BudgetExceededError("matrix size", size, budget.matrix_size)
    for sigma, tau in spec.entries:
        count = 1
        for v in range(min(sigma, tau) + 1, max(sigma, tau)):
            count *= n.at(v)
            if count > budget.state_terms:
                raise BudgetExceededError("entry terms", count, budget.state_terms)
    if table is None:
        table = variable_table(q, n)
    f = _block_det(spec, _symbolic_rep(q, n, table), table, budget.state_terms)
    if f.num_terms() > budget.invariant_terms:
        raise BudgetExceededError("invariant terms", f.num_terms(), budget.invariant_terms)
    if f.is_zero():
        raise OracleIdentityError("invariant expanded to zero")
    return f


def dual_invariant(q, n, idx, table=None, budget=None) -> MultiPolynomial:
    """The reversed-quiver invariant with the same (p, q), in paired variables: f itself.

    Reversing the arrows swaps sinks and sources, and under the trace
    pairing entry (i, j) of edge a pairs with entry (j, i) of the reversed
    edge's matrix.  Since (X_k...X_1)^T = X_1^T...X_k^T, the reversed
    quiver's block matrix at the paired point is the transpose of f's own,
    so f* = f term for term and f(d/dx) is the operator of the identity.
    """
    return expand_invariant(q, n, idx, table, budget)


def _positive_divisors(n: int):
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def _factor_b(coeffs: dict, expected_degree: int):
    """Factor sum_k coeffs[k] s^k into a leading constant times (s + c) factors."""
    if not coeffs:
        raise OracleIdentityError("extracted b-function is zero")
    deg = max(coeffs)
    if deg != expected_degree:
        raise OracleIdentityError(f"b-function degree {deg}, expected {expected_degree}")
    import fractions

    lead = fractions.Fraction(coeffs[deg])
    monic = [coeffs.get(k, 0) / lead for k in range(deg + 1)]
    if any(c.denominator != 1 for c in monic):
        raise OracleIdentityError("monic b-function has non-integer coefficients")
    poly = [int(c) for c in monic]  # poly[k] = coefficient of s^k
    constants = Counter()
    for _ in range(deg):
        a0 = poly[0]
        if a0 == 0:
            raise OracleIdentityError("b-function has root 0")
        root = None
        for c in _positive_divisors(abs(a0)):
            value = 0
            for coef in reversed(poly):
                value = value * (-c) + coef
            if value == 0:
                root = c
                break
        if root is None:
            raise OracleIdentityError("non-linear factor encountered")
        # synthetic division by (s + root)
        out = [0] * (len(poly) - 1)
        carry = poly[-1]
        for k in range(len(poly) - 2, -1, -1):
            out[k] = carry
            carry = poly[k] - root * carry
        if carry != 0:
            raise OracleIdentityError("synthetic division left a remainder")
        poly = out
        constants[root] += 1
    return FactoredBFunction.one_variable(constants), lead


class BernsteinResult(Record):
    __slots__ = ("b", "constant")  # constant: scalar by which the raw identity differs from monic

    def __init__(self, b: FactoredBFunction, constant: Fraction):
        setfield(self, "b", b)
        setfield(self, "constant", constant)


def _falling(m: int, k: int) -> tuple:
    """Coefficients, s^0 first, of the falling factorial prod_{j<k} (s + m - j)."""
    coeffs = [1]
    for j in range(k):
        coeffs = [(m - j) * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


class _NodeSum:
    """The partial sum of layers at one node of the operator's monomial trie.

    ``size`` is its state size, sum_k held(Q_k) |FF_k|, kept up to date
    product by product.
    """

    __slots__ = ("layers", "size")

    def __init__(self):
        self.layers = {}  # k-vector -> Accumulator of Q_k
        self.size = 0


def _operator_layers(operator, fs, m, budget):
    """Apply operator(d/dx) to prod_i f_i^{s_i + m_i}; return its s-free layers.

    The result is sum_k FF_k Q_k prod_i f_i^{s_i + m_i - k_i}, where
    FF_k = prod_i prod_{j<k_i} (s_i + m_i - j) and Q_k is free of s; the
    layers map each k-vector to its Q_k.  The derivative in x_v of layer k
    is dQ_k/dx_v in the same layer plus Q_k df_i/dx_v one layer up in i,
    so s never enters the walk.

    The operator is summed up its monomial trie in Horner order.  A
    monomial's derivative sequence lists its variables in ascending order;
    the monomials are walked in ascending lex order, sharing the longest
    prefix with the one before, and one partial sum is kept per depth.  The
    sum at a node is, over the monomials below it, the coefficient times
    the derivatives after the node applied to prod_i f_i^{s_i + m_i}.  A
    leaf adds its coefficient to layer 0 of its node; a node that is left
    is differentiated once by its last variable into its parent's sum.
    The root's sum is the result.  A state is the sum at one node, counted
    as sum_k |Q_k| |FF_k| (the size of the same sum with s in the ring),
    with |Q_k| the keys its accumulator holds; the state-terms budget is
    checked after each term of every product into it.
    """
    l = len(fs)
    table = operator.table
    one = MultiPolynomial.const(table, 1)
    df_cache = {}
    weights = {}

    def df(i, v):
        if (i, v) not in df_cache:
            df_cache[(i, v)] = fs[i].derivative(v)
        return df_cache[(i, v)]

    def weight(kvec):
        """|FF_k|: the falling factorials are in distinct s_i, so their term counts multiply."""
        if kvec not in weights:
            weights[kvec] = prod(sum(1 for c in _falling(mi, ki) if c) for mi, ki in zip(m, kvec))
        return weights[kvec]

    def add(node, kvec, a, b):
        """Add a * b to layer kvec of node, within the state-terms budget."""
        acc = node.layers.get(kvec)
        if acc is None:
            acc = node.layers[kvec] = Accumulator(table)
        w = weight(kvec)
        rest = node.size - acc.held() * w
        try:
            acc.add_product(a, b, (budget.state_terms - rest) // w)
        except BudgetExceededError as exc:
            raise BudgetExceededError("state terms", rest + exc.actual * w, budget.state_terms) from None
        node.size = rest + acc.held() * w

    def leave(node, v, parent):
        """Add d/dx_v of node's finished sum into parent."""
        for kvec, acc in node.layers.items():
            Q = acc.result()
            if not Q:
                continue
            dQ = Q.derivative(v)
            if dQ:
                add(parent, kvec, dQ, one)
            for i in range(l):
                if df(i, v):
                    add(parent, kvec[:i] + (kvec[i] + 1,) + kvec[i + 1:], Q, df(i, v))

    base = (0,) * l
    path, sums = [], [_NodeSum()]
    for exp, coef in operator.monomials():
        seq = [v for v, e in enumerate(exp) for _ in range(e)]
        shared = 0
        while shared < min(len(path), len(seq)) and path[shared] == seq[shared]:
            shared += 1
        while len(path) > shared:
            leave(sums.pop(), path.pop(), sums[-1])
        for v in seq[shared:]:
            path.append(v)
            sums.append(_NodeSum())
        add(sums[-1], base, MultiPolynomial.const(table, coef), one)
    while path:
        leave(sums.pop(), path.pop(), sums[-1])
    layers = {kvec: acc.result() for kvec, acc in sums[0].layers.items()}
    return {kvec: Q for kvec, Q in layers.items() if Q}


def _bernstein_b(operator, fs, m, budget) -> dict:
    """b(s) of operator(d/dx) prod_i f_i^{s_i + m_i} = b(s) prod_i f_i^{s_i}, from the layers.

    FF_k has leading monomial s^k, so the FF_k are linearly independent
    over the rational functions in x.  Dividing the operator output by
    prod_i f_i^{s_i} gives sum_k FF_k Q_k prod_i f_i^{m_i - k_i}, which is
    free of x iff every Q_k is a constant beta_k times prod_i f_i^{k_i - m_i};
    a layer with some k_i < m_i must therefore vanish.  Then
    b(s) = sum_k beta_k FF_k(s), returned as {s-exponent tuple: coefficient}.
    """
    powers = {(0,) * len(fs): MultiPolynomial.const(operator.table, 1)}

    def power(evec):
        """prod_i f_i^{e_i}; each power is one f_i times a shared smaller one.

        A loop, not recursion: a closure that calls itself is a reference
        cycle, which would keep the powers alive until the cyclic collector runs.
        """
        key = (0,) * len(evec)
        for i, e in enumerate(evec):
            for _ in range(e):
                below, key = key, key[:i] + (key[i] + 1,) + key[i + 1:]
                if key not in powers:
                    P = powers[below] * fs[i]
                    if P.num_terms() > budget.state_terms:
                        raise BudgetExceededError("power terms", P.num_terms(), budget.state_terms)
                    powers[key] = P
        return powers[key]

    b = {}
    for kvec, Q in _operator_layers(operator, fs, m, budget).items():
        evec = tuple(k - mi for k, mi in zip(kvec, m))
        if min(evec, default=0) < 0:
            raise OracleIdentityError(f"layer {kvec} below the shifts {tuple(m)} does not vanish")
        beta = Q.ratio(power(evec))
        if beta is None:
            raise OracleIdentityError(f"layer {kvec} is not a constant times the invariant powers")
        for terms in product(*(enumerate(_falling(mi, ki)) for mi, ki in zip(m, kvec))):
            exps = tuple(e for e, _ in terms)
            b[exps] = b.get(exps, 0) + beta * prod(c for _, c in terms)
    return {exps: c for exps, c in b.items() if c}


def apply_bernstein(fstar: MultiPolynomial, f: MultiPolynomial, budget=None) -> BernsteinResult:
    """Apply f*(d/dx) to f^{s+1} and extract the monic b-function.

    The identity f*(d/dx) f^{s+1} = b(s) f^s holds on the nose iff each
    s-free layer Q_k is a constant beta_k times f^{k-1} (see _bernstein_b);
    then b(s) = sum_k beta_k (s+1) s ... (s+2-k).
    """
    budget = budget or Budget()
    if fstar.table != f.table:
        raise ShapeError("operator and invariant use different variable tables")
    d = f.total_degree()
    if fstar.total_degree() != d:
        raise ShapeError(f"operator degree {fstar.total_degree()} != invariant degree {d}")
    if d == 0:
        raise ShapeError("invariant is constant")
    coeffs = {k: c for (k,), c in _bernstein_b(fstar, [f], (1,), budget).items()}
    b, lead = _factor_b(coeffs, d)
    return BernsteinResult(b, lead)


def oracle_b_function(q, n, idx, budget=None) -> BernsteinResult:
    """Expand f and run the operator identity f(d/dx) f^{s+1} = b(s) f^s (f* = f)."""
    budget = budget or Budget()
    f = expand_invariant(q, n, idx, budget=budget)
    return apply_bernstein(f, f, budget)


class MultiBernsteinResult(Record):
    __slots__ = ("ok", "b", "engine", "constant")

    def __init__(self, ok: bool, b: MultiPolynomial, engine: MultiPolynomial, constant: Fraction):
        setfield(self, "ok", ok)
        setfield(self, "b", b)
        setfield(self, "engine", engine)
        setfield(self, "constant", constant)


def _s_variables(l: int) -> tuple[VarTable, list[MultiPolynomial]]:
    """The variable table of s1..sl and the polynomial of each variable."""
    table = VarTable(f"s{i}" for i in range(1, l + 1))
    return table, [MultiPolynomial.variable(table, name) for name in table.names]


def apply_bernstein_multi(q, n, m, budget=None) -> MultiBernsteinResult:
    """Verify the several-variable operator identity at integer shifts m.

    Applies prod_i f_i^{m_i}, the product of the dual invariants (f_i* =
    f_i) to their powers, to the product of f_i^{s_i + m_i}, reads b(s)
    off the layers (_bernstein_b), and compares with the superposition
    engine's bracket product expanded at the same m.  An operator of
    degree above MAX_OPERATOR_DEGREE raises BudgetExceededError
    ("operator degree") before it is built.
    """
    budget = budget or Budget()
    invariants = enumerate_invariants(q, n)
    l = len(invariants)
    if len(m) != l:
        raise ShapeError(f"need {l} shifts, got {len(m)}")
    if any(not isinstance(k, int) or k < 0 for k in m):
        raise ShapeError("shifts must be non-negative integers")
    fs = []
    for idx in invariants:
        fs.append(expand_invariant(q, n, idx, fs[0].table if fs else None, budget))
    table = fs[0].table if fs else VarTable(())
    degree = sum(mi * f.total_degree() for f, mi in zip(fs, m))
    if degree > MAX_OPERATOR_DEGREE:
        raise BudgetExceededError("operator degree", degree, MAX_OPERATOR_DEGREE)

    operator = MultiPolynomial.const(table, 1)
    for f, mi in zip(fs, m):
        operator = operator * f ** mi
        if operator.num_terms() > budget.state_terms:
            raise BudgetExceededError("operator terms", operator.num_terms(), budget.state_terms)
    stable, svars = _s_variables(l)
    b_terms = _bernstein_b(operator, fs, m, budget)
    b_poly = MultiPolynomial.from_monomials(stable, b_terms.items())

    engine = MultiPolynomial.const(stable, 1) * evaluate_bracket_product(b_multivariate(q, n), m, svars)
    if engine.is_zero():
        raise OracleIdentityError("engine bracket product is zero")
    lead, lead_coef = engine.monomials()[-1]
    import fractions

    if lead not in b_terms:
        return MultiBernsteinResult(False, b_poly, engine, fractions.Fraction(0))
    constant = fractions.Fraction(b_terms[lead], lead_coef)
    ok = b_poly == engine * constant
    return MultiBernsteinResult(ok, b_poly, engine, constant)


def generic_point(q, n) -> MatrixRep:
    """Matrices of the all-connections diagram; no invariant vanishes here."""
    return diagram_to_matrices(q, n, complete_diagram(q, n))


def grad_log_invariant(q, n, idx):
    """Exact value of grad log f_{(p,q)} at the generic point.

    Differentiates the block determinant by the chain rule: the entries
    are path products, so the derivative in one edge entry contracts the
    inverse of the block matrix with the partial products on both sides.
    Returns one Fraction matrix per edge, shaped like the edge matrices.
    """
    spec = block_spec(q, n, idx)
    rep = generic_point(q, n)
    y_inv = linalg.inverse(assemble(spec, rep))
    dims = rep.dims
    row_off, col_off = spec.offsets(dims)
    import fractions

    grads = [
        [[fractions.Fraction(0)] * dims[q.tail(a) - 1] for _ in range(dims[q.head(a) - 1])]
        for a in q.edges()
    ]
    for (sigma, tau), path in spec.entries.items():
        mats = [rep.matrix(e) for e in path]
        pre = [linalg.identity(dims[sigma - 1])]
        for mmat in mats:
            pre.append(linalg.mat_mul(pre[-1], mmat))
        suf = [None] * (len(mats) + 1)
        suf[len(mats)] = linalg.identity(dims[tau - 1])
        for t in range(len(mats) - 1, -1, -1):
            suf[t] = linalg.mat_mul(mats[t], suf[t + 1])
        w = tuple(
            tuple(y_inv[col_off[tau] + i][row_off[sigma] + j] for j in range(dims[sigma - 1]))
            for i in range(dims[tau - 1])
        )
        for t, e in enumerate(path):
            left = pre[t]  # sink space x head(e) space
            right = suf[t + 1]  # tail(e) space x source space
            m_mat = linalg.mat_mul(linalg.mat_mul(right, w), left)
            g = grads[e - 1]
            for jj in range(len(m_mat)):
                for kk in range(len(m_mat[0])):
                    g[kk][jj] += m_mat[jj][kk]
    return tuple(linalg.mat(g) for g in grads)


class GradLogVerdict(Record):
    __slots__ = ("ok", "expected", "actual")

    def __init__(self, ok: bool, expected: MatrixRep, actual: tuple):
        setfield(self, "ok", ok)
        setfield(self, "expected", expected)
        setfield(self, "actual", actual)


def grad_log_check(q, n, idx) -> GradLogVerdict:
    """Does grad log f at the generic point equal the exact diagram's matrices?"""
    actual = grad_log_invariant(q, n, idx)
    expected = diagram_to_matrices(q, n, exact_diagram(q, n, idx))
    return GradLogVerdict(expected.matrices == actual, expected, actual)


class AFunctionVerdict(Record):
    __slots__ = ("ok", "details")  # details: (label, matches) pairs

    def __init__(self, ok: bool, details: tuple):
        setfield(self, "ok", ok)
        setfield(self, "details", details)


def a_function_check(q, n) -> AFunctionVerdict:
    """Evaluate each dual invariant at grad log of the weighted product.

    grad log of prod f_j^{s_j} at the generic point is the superposition
    of the exact diagrams with weights s_j.  The dual block matrix at its
    transpose is the transpose of f_i's own block matrix at it (see
    dual_invariant), so f_i's block determinant there, times f_i at the
    generic point, must reproduce the a-function monomial for the i-th
    unit vector.
    """
    invariants = enumerate_invariants(q, n)
    l = len(invariants)
    table, s_polys = _s_variables(l)
    diag_reps = [diagram_to_matrices(q, n, exact_diagram(q, n, idx)) for idx in invariants]

    weighted = []
    for a in q.edges():
        rows, cols = n.at(q.head(a)), n.at(q.tail(a))
        entries = [
            [
                sum(
                    (s_polys[i] * diag_reps[i].matrix(a)[r][c] for i in range(l)),
                    MultiPolynomial.zero(table),
                )
                for c in range(cols)
            ]
            for r in range(rows)
        ]
        weighted.append(linalg.mat(entries))

    a0 = generic_point(q, n)
    afun = a_function(q, n)
    weighted_rep = MatrixRep(tuple(n), tuple(weighted))

    details = []
    for label, idx in enumerate(invariants, start=1):
        spec = block_spec(q, n, idx)
        actual = _block_det(spec, weighted_rep, table) * evaluate_invariant(spec, a0)
        expected = MultiPolynomial.const(table, 1)
        for form, exponent in afun.eps_exponents(label):
            expected = expected * form.value(s_polys) ** exponent
        details.append((label, actual == expected))
    return AFunctionVerdict(all(okay for _, okay in details), tuple(details))
