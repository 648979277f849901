"""The query registry's shared primitives stay the only copies:
top-k goes through ``stages.similarity.top_k`` (``Dataset.sort(…)
.limit(k)`` range-partitions its whole input, because Ray's limit
pushdown stops at a Sort), and a probe against a sorted key array
goes through ``_sorted_lookup`` (a hand-rolled clamp
``np.minimum(idx, len(keys) - 1)`` indexes ``keys[-1]`` of an empty
key array), and the broadcast-or-join choice of a dimension attach
goes through ``stages.similarity.lookup_join``, whose one byte budget
replaces the per-query row-count gates."""

import ast
import pathlib
import re

QUERIES = (pathlib.Path(__file__).resolve().parent.parent
           / "documentconvert_ray" / "pipelines" / "queries.py")


def _method_call(node, name: str) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name)


def _sort_limit_chains(tree: ast.AST) -> list[int]:
    return [n.lineno for n in ast.walk(tree)
            if _method_call(n, "limit") and _method_call(n.func.value, "sort")]


def _len_minus_one_clamps(tree: ast.AST) -> list[int]:
    skip = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "_sorted_lookup":
            skip.update(range(fn.lineno, fn.end_lineno + 1))
    return sorted(
        n.lineno for n in ast.walk(tree)
        if _method_call(n, "minimum") and n.lineno not in skip and any(
            isinstance(a, ast.BinOp) and isinstance(a.op, ast.Sub)
            and isinstance(a.left, ast.Call)
            and getattr(a.left.func, "id", None) == "len"
            for a in n.args))


def _broadcast_gates(tree: ast.Module) -> list[str]:
    names = []
    for n in tree.body:
        targets = n.targets if isinstance(n, ast.Assign) else (
            [n.target] if isinstance(n, ast.AnnAssign) else [])
        names += [t.id for t in targets if isinstance(t, ast.Name)
                  and re.search(r"(BCAST|BROADCAST)_MAX", t.id)]
    return names


def test_detectors_see_the_idioms():
    tree = ast.parse(
        "CUST_BROADCAST_MAX = 2_000_000\n"
        "def q(ds, keys, probe):\n"
        "    top = ds.sort(['n', 'w'], descending=[True, False]).limit(20)\n"
        "    idx = np.searchsorted(keys, probe)\n"
        "    return top, np.minimum(idx, len(keys) - 1)\n"
        "PMI_BCAST_MAX_VOCAB: int = 2_000_000\n")
    assert _sort_limit_chains(tree) == [3]
    assert _len_minus_one_clamps(tree) == [5]
    assert _broadcast_gates(tree) == ["CUST_BROADCAST_MAX",
                                      "PMI_BCAST_MAX_VOCAB"]


def test_no_sort_limit_chain_in_queries():
    tree = ast.parse(QUERIES.read_text(encoding="utf-8"))
    assert _sort_limit_chains(tree) == []


def test_no_hand_rolled_sorted_lookup_in_queries():
    tree = ast.parse(QUERIES.read_text(encoding="utf-8"))
    assert _len_minus_one_clamps(tree) == []


def test_no_broadcast_gate_constant_in_queries():
    tree = ast.parse(QUERIES.read_text(encoding="utf-8"))
    assert _broadcast_gates(tree) == []
