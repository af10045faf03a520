"""tests/test_walk.py checks the walk of the event-prefix tree through qhist's
public names and two private seams: the reduction ``histories._max_residual``
and the pair search ``histories._violating_pairs``. A test that read a field
of the walk's record, or another private helper, would need rewriting each
time the record changes; this keeps such reads out."""

import ast
from pathlib import Path

WALK_TESTS = Path(__file__).resolve().with_name("test_walk.py")
SEAMS = {"_max_residual", "_violating_pairs"}
_ATTRIBUTE_CALLS = {"setattr", "getattr", "hasattr", "delattr", "__setattr__"}


def _private_names(source: str) -> set[str]:
    """The private names (one leading underscore) that ``source`` reads as an
    attribute, imports from qhist, or passes to setattr and its kin by name
    (``monkeypatch.setattr(histories, "_walk", ...)``,
    ``object.__setattr__(fam, "_walked", ...)``)."""
    named = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qhist":
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _ATTRIBUTE_CALLS:
                named.update(arg.value.rsplit(".", 1)[-1] for arg in node.args
                             if isinstance(arg, ast.Constant) and isinstance(arg.value, str))
    return {n for n in named if n.startswith("_") and not n.startswith("__")}


def test_the_walk_tests_read_only_the_two_private_seams():
    assert _private_names(WALK_TESTS.read_text(encoding="utf-8")) <= SEAMS


def test_the_seam_guard_sees_each_kind_of_private_read():
    source = "\n".join([
        "from qhist.histories import _walk, chain_kets",
        "from qhist import _lazy",
        "record = fam._walked",
        "monkeypatch.setattr(histories, '_norms', counted)",
        "monkeypatch.setattr('qhist.histories._tree', None)",
        "object.__setattr__(fam, '_positions', {})",
        "object.__setattr__(fam, 'histories', ())",
        "histories._max_residual(*inputs)",
    ])
    assert _private_names(source) == {"_walk", "_lazy", "_walked", "_norms", "_tree",
                                      "_positions", "_max_residual"}
