"""Every name and record field of src/qbfun that no library module uses is listed, with why it stays.

A top-level function or class counts as used when some module of
src/qbfun other than __init__ refers to its name, by an attribute read
or by a name that is not local to its scope (a loop variable or an
argument of that name is another variable).  A public method, or a
slot of a record, counts as used only when some such module reads it as
an attribute (``x.name``), so a local variable of the same name does
not hide it either.  Code that only the tests, the benchmark or the
package's re-exports reach belongs in tests/ unless it has a reason
here.  A last scan reads the imports each module runs when it is
imported, so a module-level import of a deferred module shows.
"""

import ast
import symtable
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qbfun"

# the names that no src/qbfun module refers to, each with its reason to stay
ALLOWED = {
    "bfun.AFunction.monomial": "the a-function's monomial at a shift, its public reading",
    "bfun.FactoredBFunction.constants": "the one-variable reading, the inverse of `one_variable`",
    "bfun.FactoredBFunction.degree": "deg b = deg f, a public reading",
    "bfun.FactoredBFunction.specialize_label": "the benchmark's engine cross-check calls it",
    "diagrams.LaceDiagram.edge_counts": "the connections per edge, the diagram's degree bookkeeping",
    "diagrams.arrow": "the one arrow layout, public: edge and constant to dots",
    "diagrams.strands": "the strand decomposition; perfbench/tracing.py wraps it by name",
    "invariants.MatrixRep.random": "random points of the prehomogeneous space",
    "invariants.act": "the group action of the prehomogeneous space",
    "invariants.is_invariant": "perfbench/tracing.py wraps it by name",
    "jsonio.afun_from_json": "the documented JSON round trip",
    "jsonio.bfun_from_json": "the documented JSON round trip; the benchmark's cross-checks decode with it",
    "jsonio.diagram_from_json": "the documented JSON round trip",
    "jsonio.fset_from_json": "the documented JSON round trip",
    "jsonio.quiver_from_json": "the documented JSON round trip",
    "jsonio.quiver_to_json": "the documented JSON round trip",
    "jsonio.rank_from_json": "the documented JSON round trip; the benchmark's cross-checks decode with it",
    "jsonio.slice_from_json": "the documented JSON round trip",
    "linalg.rank": "perfbench/tracing.py wraps it by name",
    "oracle.dual_invariant": "perfbench/tracing.py wraps it by name",
    "poly.MultiPolynomial.eval_at": "the point-evaluation kernel (ROADMAP item 3) is to use it",
    "poly.MultiPolynomial.exact_div": "perfbench/tracing.py wraps it by name",
    "quiver.QuiverA.dual": "the reversed quiver, public",
    "quiver.euler_form": "perfbench/tracing.py wraps it by name",
    "quiver.sinks_sources": "perfbench/tracing.py wraps it by name; it is computed on call, not stored",
    "ranks.SliceRep.slice_dimension": "the slice oracle (ROADMAP item 5) is to use it",
    "ranks.restricted_invariant_shape": "perfbench/tracing.py wraps it by name",
    "ranks.slice_representation": "perfbench/tracing.py wraps it by name",
    "ranks.summand_ext": "perfbench/tracing.py wraps it by name",
}


# the record fields that no src/qbfun module reads, each with its reason to stay
UNREAD_FIELDS = {
    "diagrams.Strand.dots": "a strand's dot in each of its columns, the public reading of `strands`",
    "diagrams.Strand.interval": "a strand's interval, the public reading of `strands`",
    "oracle.AFunctionVerdict.details": "the (label, matches) pairs behind `ok`, to diagnose a failure",
    "oracle.GradLogVerdict.expected": "the exact diagram's matrices that `ok` compared, to diagnose a failure",
    "oracle.MultiBernsteinResult.engine": "the engine's product that `ok` compared, to diagnose a failure",
    "ranks.RestrictedInvariant.path": "the local vertices in path order, for the slice oracle (ROADMAP item 5)",
}


def _global_names(source: str, filename: str) -> set[str]:
    """The names a module refers to, except where the name is local to the scope it occurs in."""
    found = set()
    tables = [symtable.symtable(source, filename, "exec")]
    while tables:
        table = tables.pop()
        tables.extend(table.get_children())
        module = table.get_type() == "module"
        found.update(sym.get_name() for sym in table.get_symbols() if sym.is_referenced() and (module or sym.is_global()))
    return found


def _scan(src: Path):
    """Each module's tree but __init__'s, the global names they refer to, and the attributes they read."""
    paths = [path for path in sorted(src.glob("*.py")) if path.stem != "__init__"]
    trees, names, read = {}, set(), set()
    for path in paths:
        source = path.read_text()
        trees[path.stem] = ast.parse(source)
        names |= _global_names(source, str(path))
        read.update(
            node.attr for node in ast.walk(trees[path.stem]) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
    return trees, names, read


def unused_names(src: Path) -> set[str]:
    """module.name and module.Class.method for every definition that no module but __init__ uses."""
    trees, names, read = _scan(src)
    used = names | read
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in used:
                found.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_") and method.name not in read:
                        found.add(f"{module}.{node.name}.{method.name}")
    return found


def unread_fields(src: Path) -> set[str]:
    """module.Record.slot for every slot of a Record subclass that no module but __init__ reads."""
    trees, _, read = _scan(src)
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or not any(getattr(b, "id", None) == "Record" for b in node.bases):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets):
                    slots = ast.literal_eval(stmt.value)
                    found.update(f"{module}.{node.name}.{slot}" for slot in slots if slot not in read)
    return found


def test_every_name_no_module_uses_has_a_reason():
    assert unused_names(SRC) == set(ALLOWED)


def test_every_record_field_no_module_reads_has_a_reason():
    assert unread_fields(SRC) == set(UNREAD_FIELDS)


def test_the_scan_finds_a_name_only_the_tests_call(tmp_path):
    """A helper that no module calls is found; once a module calls it, it is not.

    A loop variable of the helper's name does not count as a call.  A
    record field is found until a module reads it as an attribute; a
    local variable of the same name does not count as a read.
    """
    (tmp_path / "a.py").write_text("class K:\n    def m(self):\n        pass\n\n\ndef helper():\n    return K()\n")
    assert unused_names(tmp_path) == {"a.helper", "a.K.m"}
    (tmp_path / "b.py").write_text("from .a import helper\n\n\ndef run():\n    return helper().m()\n")
    assert unused_names(tmp_path) == {"b.run"}
    (tmp_path / "c.py").write_text(
        "from .record import Record\n\n\nclass R(Record):\n    __slots__ = ('x', 'y')\n\n\n"
        "def first(r):\n    y = r.x\n    return y\n"
    )
    assert unread_fields(tmp_path) == {"c.R.y"}
    (tmp_path / "d.py").write_text(
        "def act():\n    return 1\n\n\ndef run(xs):\n    for act in xs:\n        print(act)\n"
        "    return [act for act in xs]\n"
    )
    assert {"d.act", "d.run"} <= unused_names(tmp_path)
    (tmp_path / "e.py").write_text("from .d import act\n\n\ndef go():\n    return act()\n")
    assert "d.act" not in unused_names(tmp_path)


# stdlib modules that only a function body of src/qbfun may import: only verify's requests build
# a Fraction (fractions loads decimal and numbers), test a polynomial's scalar (numbers) or divide
# polynomials (heapq), and no module needs re
DEFERRED_IMPORTS = {"fractions", "decimal", "numbers", "heapq", "re"}


def import_time_imports(src: Path) -> set[str]:
    """module:package for every absolute import a module of src runs when it is imported.

    Statements at module level, in class bodies and in top-level if or try
    blocks run then; those in a function body run only when it is called.
    """
    found = set()
    for path in sorted(src.glob("*.py")):
        nodes = list(ast.parse(path.read_text()).body)
        while nodes:
            node = nodes.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Import):
                found.update(f"{path.stem}:{alias.name.partition('.')[0]}" for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(f"{path.stem}:{node.module.partition('.')[0]}")
            nodes.extend(ast.iter_child_nodes(node))
    return found


def test_no_module_imports_fractions_decimal_numbers_heapq_or_re_when_it_is_imported():
    """A static check: re is loaded at start-up where a .pth file imports it, so sys.modules cannot show it."""
    assert {name for name in import_time_imports(SRC) if name.partition(":")[2] in DEFERRED_IMPORTS} == set()


def test_the_import_scan_skips_only_function_bodies(tmp_path):
    (tmp_path / "a.py").write_text(
        "import re\nimport xml.dom as dom\nfrom . import b\n\n\nclass K:\n    from heapq import heappop\n\n\n"
        "try:\n    import decimal\nexcept ImportError:\n    pass\n\n\ndef f():\n    from fractions import Fraction\n"
    )
    assert import_time_imports(tmp_path) == {"a:re", "a:xml", "a:heapq", "a:decimal"}
