"""The s-free layer walk of the operator oracle against the s-in-ring walk.

The reference below carries every derivative of prod_i f_i^{s_i + m_i}
with s inside the polynomial ring: the derivative in x_v of a layer term
P_k f^{s+m-k} is dP_k/dx_v in layer k plus P_k (s_i + m_i - k_i) df_i/dx_v
in layer k + e_i.  It uses only public ``MultiPolynomial`` operations and
walks every operator monomial from scratch.  ``_operator_layers`` returns
the s-free Q_k of each layer; multiplied by
FF_k = prod_i prod_{j<k_i} (s_i + m_i - j), built here from the s
variables, they must give exactly the reference layer dict.
"""

import itertools
import random

import pytest

from conftest import instance, random_instance
from qbfun import Budget, enumerate_invariants
from qbfun.oracle import _operator_layers, dual_invariant, expand_invariant, variable_table
from qbfun.poly import MultiPolynomial, VarTable


def reference_layers(operator, fs, m, s_polys):
    l = len(fs)
    one = MultiPolynomial.const(operator.table, 1)
    final = {}
    for exp, coef in operator.monomials():
        state = {(0,) * l: one}
        for v, e in enumerate(exp):
            for _ in range(e):
                new = {}
                for kvec, P in state.items():
                    new[kvec] = new.get(kvec, 0) + P.derivative(v)
                    for i in range(l):
                        up = kvec[:i] + (kvec[i] + 1,) + kvec[i + 1:]
                        step = P * fs[i].derivative(v) * (s_polys[i] + (m[i] - kvec[i]))
                        new[up] = new.get(up, 0) + step
                state = {k: P for k, P in new.items() if P}
        for kvec, P in state.items():
            final[kvec] = final.get(kvec, 0) + P * coef
    return {k: P for k, P in final.items() if P}


def s_in_ring(q, n, invariants):
    """The matrix variables and one s_i per invariant, the f_i over them, and the s_i."""
    svars = ("s",) if len(invariants) == 1 else tuple(f"s{i}" for i in range(1, len(invariants) + 1))
    table = VarTable(variable_table(q, n).names + svars)
    fs = [expand_invariant(q, n, idx, table) for idx in invariants]
    return fs, [MultiPolynomial.variable(table, name) for name in svars]


def check_walks_agree(q, n, invariants, m):
    """Compare both walks on operator prod_i f_i*^{m_i} over prod_i f_i^{s_i + m_i}."""
    fs, s_polys = s_in_ring(q, n, invariants)
    operator = MultiPolynomial.const(fs[0].table, 1)
    for idx, mi in zip(invariants, m):
        operator = operator * dual_invariant(q, n, idx, fs[0].table) ** mi
    check_operator(operator, fs, m, s_polys)


def check_operator(operator, fs, m, s_polys):
    """The s-free layers of operator(d/dx) prod_i f_i^{s_i + m_i}, times FF_k, against the reference."""
    layers = {}
    for kvec, Q in _operator_layers(operator, fs, m, Budget()).items():
        for s_i, m_i, k_i in zip(s_polys, m, kvec):
            for j in range(k_i):
                Q = Q * (s_i + (m_i - j))
        layers[kvec] = Q
    assert layers == reference_layers(operator, fs, m, s_polys)
    assert layers


@pytest.mark.parametrize("text", ["1->2", "1<-2"])
@pytest.mark.parametrize("size", [1, 2, 3])
def test_layers_match_reference_on_square_determinants(text, size):
    q, n = instance(text, (size, size))
    for idx in enumerate_invariants(q, n):
        check_walks_agree(q, n, [idx], (1,))


@pytest.mark.parametrize("text", ["1->2->3", "1->2<-3", "1<-2->3", "1<-2<-3"])
def test_layers_match_reference_on_three_vertex_chains(text):
    for dims in itertools.product((1, 2, 3), repeat=3):
        q, n = instance(text, dims)
        for idx in enumerate_invariants(q, n):
            check_walks_agree(q, n, [idx], (1,))


@pytest.mark.parametrize("m", [(1,), (1, 1), (2, 1)])
def test_layers_match_reference_on_random_instances(m):
    rng = random.Random(91)
    checked = 0
    while checked < 6:
        q, n, invs = random_instance(rng, rmax=4, nmax=2)
        if len(invs) == len(m):
            check_walks_agree(q, n, invs, m)
            checked += 1


# Operators that are not homogeneous: the workload never sends them, but a
# Horner walk meets a leaf above other leaves and sums of unequal depth here.

@pytest.mark.parametrize("text,dims", [("1->2", (2, 2)), ("1<-2", (3, 3)), ("1->2<-3", (1, 2, 1)), ("1->2->3", (2, 2, 2))])
def test_layers_match_reference_with_a_constant_term(text, dims):
    """1 + f: the root itself is a leaf, besides the leaves of f."""
    q, n = instance(text, dims)
    for idx in enumerate_invariants(q, n):
        fs, s_polys = s_in_ring(q, n, [idx])
        check_operator(fs[0] + 1, fs, (1,), s_polys)
        check_operator(fs[0] * 3 - 2, fs, (2,), s_polys)


@pytest.mark.parametrize("text,dims", [("1->2", (2, 2)), ("1<-2", (2, 2)), ("1->2<-3", (1, 2, 1)), ("1<-2->3", (2, 2, 2))])
def test_layers_match_reference_when_a_sequence_extends_another(text, dims):
    """f + x_v f with v the last matrix variable: a leaf lies on the path to a deeper leaf.

    Each monomial of f has a derivative sequence that is a proper prefix of
    the sequence of the same monomial times x_v.
    """
    q, n = instance(text, dims)
    last = variable_table(q, n).names[-1]
    for idx in enumerate_invariants(q, n):
        fs, s_polys = s_in_ring(q, n, [idx])
        x = MultiPolynomial.variable(fs[0].table, last)
        check_operator(fs[0] + x * fs[0], fs, (1,), s_polys)
        check_operator(fs[0] - x * x * fs[0] * 5, fs, (1,), s_polys)


@pytest.mark.parametrize("text", ["1->2->3->4", "1->2<-3->4"])
def test_layers_match_reference_on_a_sum_of_two_degrees(text):
    """f_1 + f_2 with deg f_1 = 3 and deg f_2 = 2, over f_1^{s_1 + m_1} f_2^{s_2 + m_2}."""
    q, n = instance(text, (1, 2, 2, 1))
    invariants = enumerate_invariants(q, n)
    fs, s_polys = s_in_ring(q, n, invariants)
    assert sorted(f.total_degree() for f in fs) == [2, 3]
    for m in ((1, 1), (2, 1), (0, 2)):
        check_operator(fs[0] + fs[1], fs, m, s_polys)
        check_operator(fs[0] * fs[1] + fs[1] * 7, fs, m, s_polys)
