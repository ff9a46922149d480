"""Value semantics of every record type (qbfun.record.Record and its subclasses).

One instance of each class, built from a worked example, with the public
field names in constructor order.
"""

import copy
import importlib
import pickle
import pkgutil

import pytest

import qbfun

from conftest import ALT5, EQUI5, instance
from qbfun import (
    AFunction,
    Budget,
    FactoredBFunction,
    Interval,
    InvariantIndex,
    RestrictedInvariant,
    a_function,
    b_multivariate,
    b_one_variable,
    block_spec,
    diagram_to_matrices,
    exact_diagram,
    fset_of_invariant,
    invariant_index,
    rank_parameter,
    restricted_invariant_shape,
    slice_representation,
    strands,
)
from qbfun.oracle import a_function_check, apply_bernstein_multi, grad_log_check, oracle_b_function
from qbfun.ranks import normal_slice
from qbfun.record import Record
from qbfun.render import LabeledDiagram, superposed_diagram


def _examples():
    q, n = instance(*EQUI5)
    idx = invariant_index(q, 3, 4)
    d = exact_diagram(q, n, idx)
    rep = diagram_to_matrices(q, n, d)
    alt_q, alt_n = instance(*ALT5)
    small_q, small_n = instance("1->2", (2, 2))
    small_idx = invariant_index(small_q, 1, 2)
    return {
        "QuiverA": (alt_q, ("r", "directions")),
        "DimVector": (alt_n, ("entries",)),
        "Interval": (Interval(2, 4), ("i", "j")),
        "InvariantIndex": (idx, ("p", "q")),
        "BlockMatrixSpec": (
            block_spec(alt_q, alt_n, invariant_index(alt_q, 1, 4)),
            ("row_blocks", "col_blocks", "entries"),
        ),
        "MatrixRep": (rep, ("dims", "matrices")),
        "LaceDiagram": (d, ("columns", "connections")),
        "Strand": (strands(d)[-1], ("interval", "dots")),
        "LinearForm": (b_multivariate(q, n).factors[-1][0], ("coeffs", "constant")),
        "FactoredBFunction": (b_one_variable(q, n, idx), ("num_labels", "factors")),
        "FSet": (fset_of_invariant(q, n, idx), ("r", "ranges")),
        "AFunction": (a_function(q, n), ("num_labels", "factors")),
        "RankParameter": (rank_parameter(q, n, rep), ("rows",)),
        "SliceRep": (slice_representation(q, n, idx), ("vertices", "arrows")),
        "NormalSlice": (normal_slice(q, n, idx), ("index", "diagram", "where", "rep")),
        "RestrictedInvariant": (
            restricted_invariant_shape(q, n, idx, invariant_index(q, 1, 5)),
            ("constant", "quiver", "dims", "index", "path"),
        ),
        "LabeledDiagram": (superposed_diagram(q, n), ("quiver", "diagram", "labels")),
        "Budget": (Budget(), ("invariant_terms", "state_terms", "matrix_size")),
        "BernsteinResult": (oracle_b_function(small_q, small_n, small_idx), ("b", "constant")),
        "MultiBernsteinResult": (apply_bernstein_multi(small_q, small_n, (1,)), ("ok", "b", "engine", "constant")),
        "GradLogVerdict": (grad_log_check(small_q, small_n, small_idx), ("ok", "expected", "actual")),
        "AFunctionVerdict": (a_function_check(small_q, small_n), ("ok", "details")),
    }


EXAMPLES = _examples()
NAMES = sorted(EXAMPLES)

# records holding a dict, a list, or a polynomial (equal only over one variable
# table), hash like their field tuple: not at all
UNHASHABLE = {"BlockMatrixSpec", "SliceRep", "NormalSlice", "LabeledDiagram", "MultiBernsteinResult"}


def fields(x):
    return tuple(getattr(x, name) for name in EXAMPLES[type(x).__name__][1])


def test_every_example_is_its_named_class():
    for name in NAMES:
        x, _ = EXAMPLES[name]
        assert type(x).__name__ == name
        assert type(x).__module__.startswith("qbfun.")


def test_examples_name_every_record_class_of_the_library():
    """A new record type cannot skip this suite."""
    defined = set()
    for info in pkgutil.iter_modules(qbfun.__path__):
        module = importlib.import_module(f"qbfun.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, Record) and value.__module__ == module.__name__:
                defined.add(value.__name__)
    defined.discard("Record")
    assert defined == set(EXAMPLES)


@pytest.mark.parametrize("name", NAMES)
def test_rebuilt_from_its_fields_is_equal(name):
    x, _ = EXAMPLES[name]
    twin = type(x)(*fields(x))
    assert twin == x and not twin != x
    assert twin is not x


def test_equality_holds_only_within_a_class():
    values = [EXAMPLES[name][0] for name in NAMES]
    for a in values:
        assert a != fields(a)
        for b in values:
            if b is not a:
                assert a != b
    # same field tuple, different class
    assert AFunction(1, ()) != FactoredBFunction(1, ())
    assert hash(AFunction(1, ())) == hash(FactoredBFunction(1, ()))


@pytest.mark.parametrize("name", NAMES)
def test_hash_is_the_hash_of_the_field_tuple(name):
    x, _ = EXAMPLES[name]
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(fields(x))
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(fields(x))


def test_ordered_records_order_like_their_field_tuples():
    q, n = instance(*ALT5)
    intervals = [Interval(i, j) for i in range(1, 5) for j in range(4, i - 1, -1)]
    assert sorted(intervals) == sorted(intervals, key=lambda iv: (iv.i, iv.j))
    indices = [invariant_index(q, p, qq) for p in range(1, 5) for qq in range(5, p, -1)]
    assert sorted(indices) == sorted(indices, key=fields)
    a, b = Interval(1, 3), Interval(2, 2)
    assert (a < b, a <= b, a > b, a >= b) == (True, True, False, False)
    assert Interval(2, 2) <= Interval(2, 2) and Interval(2, 2) >= Interval(2, 2)


def test_comparing_across_classes_or_unordered_records_raises():
    iv, idx = EXAMPLES["Interval"][0], EXAMPLES["InvariantIndex"][0]
    for a, b in ((iv, idx), (idx, iv), (iv, (2, 4)), (idx, fields(idx))):
        with pytest.raises(TypeError):
            a < b
        with pytest.raises(TypeError):
            a >= b
    n = EXAMPLES["DimVector"][0]
    with pytest.raises(TypeError):
        n < n


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise(name):
    x, names = EXAMPLES[name]
    before = fields(x)
    for field in names:
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert all(a is b for a, b in zip(fields(x), before))


@pytest.mark.parametrize("name", NAMES)
def test_repr_lists_the_fields(name):
    x, names = EXAMPLES[name]
    assert repr(x) == f"{name}(" + ", ".join(f"{field}={getattr(x, field)!r}" for field in names) + ")"


@pytest.mark.parametrize("name", NAMES)
def test_wrong_argument_count_raises(name):
    x, _ = EXAMPLES[name]
    with pytest.raises(TypeError):
        type(x)(*fields(x), None)
    if name != "Budget":
        with pytest.raises(TypeError):
            type(x)()


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_copy_round_trips(name):
    x, _ = EXAMPLES[name]
    assert copy.copy(x) == x
    for clone in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(clone) is type(x)
        assert clone == x


def test_quiver_round_trips_after_its_prefix_counts_are_cached():
    q = EXAMPLES["QuiverA"][0]
    rights = q._rights
    for clone in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        assert clone == q and hash(clone) == hash(q)
        assert clone._rights == rights


def test_budget_keywords_and_defaults():
    assert Budget() == Budget(200, 20000, 6)
    assert fields(Budget(state_terms=50)) == (200, 50, 6)
    assert fields(Budget(1, matrix_size=3)) == (1, 20000, 3)
    assert Budget.parse("7,8") == Budget(invariant_terms=7, state_terms=8)


def test_restricted_invariant_defaults():
    shape = RestrictedInvariant(constant=True)
    assert fields(shape) == (True, None, None, None, None)
    assert shape.local_b() is None
    assert shape == RestrictedInvariant(True)


def test_labeled_diagrams_do_not_share_their_labels():
    q, n = instance(*EQUI5)
    d = exact_diagram(q, n, invariant_index(q, 3, 4))
    a, b = LabeledDiagram(q, d), LabeledDiagram(q, d)
    assert a.labels == {} and b.labels == {}
    assert a.labels is not b.labels
    a.labels["added"] = None
    assert b.labels == {}


def test_hashing_a_record_that_holds_a_dict_raises():
    for name in ("BlockMatrixSpec", "SliceRep", "LabeledDiagram"):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(EXAMPLES[name][0])


def test_record_classes_are_slotted():
    for name in NAMES:
        x, _ = EXAMPLES[name]
        assert hasattr(type(x), "__slots__")
    assert not hasattr(EXAMPLES["Interval"][0], "__dict__")
