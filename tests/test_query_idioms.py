"""The query registry's shared primitives stay the only copies:
top-k goes through ``stages.similarity.top_k`` (``Dataset.sort(…)
.limit(k)`` range-partitions its whole input, because Ray's limit
pushdown stops at a Sort), and a probe against a sorted key array
goes through ``_sorted_lookup`` (a hand-rolled clamp
``np.minimum(idx, len(keys) - 1)`` indexes ``keys[-1]`` of an empty
key array), and the broadcast-or-join choice of a dimension attach
goes through ``stages.similarity.lookup_join``, whose one byte budget
replaces the per-query row-count gates. A native ``Dataset.join`` is
left only where the join is not an N:1 lookup (``NATIVE_JOINS``). A
hash exchange is one ``stages.dedup.bucketed_close`` call, whose
``bucket_ids`` is the one key→bucket hash: a hand-built bucket column
is left only where the bucket is not a hash of a per-key close's key
(``BUCKET_EXCHANGES``), and the multiplicative-hash constant appears
only in ``bucket_ids`` and the ``_knuth32`` sampling hash."""

import ast
import pathlib
import re

PKG = pathlib.Path(__file__).resolve().parent.parent / "documentconvert_ray"
QUERIES = PKG / "pipelines" / "queries.py"


# the q_* functions whose native joins are not lookups of a
# key-unique side
NATIVE_JOINS = {
    "q_dup_gram_mass": "left_outer: docs without a duplicated gram keep 0",
    "q_user_customer_outer": "full_outer: unmatched rows of both sides",
    "q_nation_order_avg": "left_outer: customers without orders count 0",
    "q_inactive_customers": "left_anti: the customers with no order",
    "q_salted_user_join": "the salted hot-key split is the operator",
}


# the functions that still group on a bucket column they build
# themselves, each with the reason it is not a bucketed_close
BUCKET_EXCHANGES = {
    "q_sequence_pack": "order-preserving range key `rb`: the close "
                       "reads its range's prefix offset",
    "q_event_density": "range partition with replica rows: the close "
                       "reads the bucket",
    "q_peak_concurrency": "range partition with replica rows: the close "
                          "reads the bucket",
    "q_sorted_neighborhood_dups": "range partition with replica rows: "
                                  "the close reads the bucket",
    "q_value_quantiles_sketch": "content-hash spreading merge (`jb`), "
                                "not one group per key",
    "q_distinct_users_hll": "content-hash spreading merge (`jb`), not "
                            "one group per key",
    "q_embedding_near_dups_ivf": "the bucket is the centroid cell, not "
                                 "a hash",
}
_BUCKET_COLS = {"bucket", "pair_bucket", "jb", "pb", "eb", "nb", "rb"}
_KNUTH = 2654435761


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


def _native_joins(tree: ast.Module) -> list[tuple[str, int]]:
    """(function, line) of each ``.join`` call in a q_* function
    other than ``os.path.join`` and ``"sep".join``."""
    return [(fn.name, n.lineno) for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("q_")
            for n in ast.walk(fn)
            if _method_call(n, "join")
            and not isinstance(n.func.value, ast.Constant)
            and ast.unparse(n.func.value) != "os.path"]


def _bucket_exchanges(tree: ast.Module) -> list[tuple[str, int]]:
    """(function, line) of each ``.groupby(<bucket column>)
    .map_groups(…)`` in a top-level function."""
    return [(fn.name, n.lineno) for fn in tree.body
            if isinstance(fn, ast.FunctionDef)
            for n in ast.walk(fn)
            if _method_call(n, "map_groups")
            and _method_call(n.func.value, "groupby")
            and len(n.func.value.args) == 1
            and getattr(n.func.value.args[0], "value", None) in _BUCKET_COLS]


def _knuth_constants(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing top-level name, line) of each integer literal
    2654435761."""
    return [(getattr(top, "name", "<module>"), n.lineno)
            for top in tree.body for n in ast.walk(top)
            if isinstance(n, ast.Constant) and n.value == _KNUTH]


def _bucket_count_params(tree: ast.Module) -> list[str]:
    """Names of the functions and methods that take a bucket count
    (a parameter named ``nb`` or ``*_buckets``)."""
    return [n.name for n in ast.walk(tree)
            if isinstance(n, ast.FunctionDef)
            and any(a.arg == "nb" or a.arg.endswith("_buckets")
                    for a in n.args.args + n.args.kwonlyargs)]


def test_detectors_see_the_idioms():
    tree = ast.parse(
        "CUST_BROADCAST_MAX = 2_000_000\n"
        "def q(ds, keys, probe):\n"
        "    top = ds.sort(['n', 'w'], descending=[True, False]).limit(20)\n"
        "    idx = np.searchsorted(keys, probe)\n"
        "    return top, np.minimum(idx, len(keys) - 1)\n"
        "PMI_BCAST_MAX_VOCAB: int = 2_000_000\n"
        "def q_pair(a, b, d):\n"
        "    p = os.path.join(d, 'x') + ' '.join(['y'])\n"
        "    return a.join(b, 'inner', 8, on=('k',))\n"
        "def q_dups(ds, n_pair_buckets):\n"
        "    pb = (ds * 2654435761 + 1) % n_pair_buckets\n"
        "    ds.groupby('pair_bucket').map_groups(f, batch_format='pandas')\n"
        "    ds.groupby('doc_id').map_groups(f)\n"
        "    return ds.groupby('eb').map_groups(g), '2654435761'\n")
    assert _sort_limit_chains(tree) == [3]
    assert _len_minus_one_clamps(tree) == [5]
    assert _broadcast_gates(tree) == ["CUST_BROADCAST_MAX",
                                      "PMI_BCAST_MAX_VOCAB"]
    assert _native_joins(tree) == [("q_pair", 9)]
    assert _bucket_exchanges(tree) == [("q_dups", 12), ("q_dups", 14)]
    assert _knuth_constants(tree) == [("q_dups", 11)]
    assert _bucket_count_params(tree) == ["q_dups"]


def test_no_sort_limit_chain_in_queries():
    tree = ast.parse(QUERIES.read_text(encoding="utf-8"))
    assert _sort_limit_chains(tree) == []


def test_no_hand_rolled_sorted_lookup_in_queries():
    tree = ast.parse(QUERIES.read_text(encoding="utf-8"))
    assert _len_minus_one_clamps(tree) == []


def test_no_broadcast_gate_constant_in_queries():
    tree = ast.parse(QUERIES.read_text(encoding="utf-8"))
    assert _broadcast_gates(tree) == []


def test_native_joins_only_where_not_a_lookup():
    tree = ast.parse(QUERIES.read_text(encoding="utf-8"))
    joins = _native_joins(tree)
    assert {fn for fn, _ in joins} <= set(NATIVE_JOINS), joins
    assert len(joins) == 6


def test_hash_exchanges_only_on_bucketed_close():
    tree = ast.parse(QUERIES.read_text(encoding="utf-8"))
    found = _bucket_exchanges(tree)
    assert {fn for fn, _ in found} == set(BUCKET_EXCHANGES), found


def test_one_key_to_bucket_hash():
    """The multiplicative-hash constant lives only in ``bucket_ids``
    (stages/dedup.py) and ``_knuth32`` (a sampling hash, not a
    bucket), and no stage takes a bucket count but ``bucket_ids`` and
    the two spreading-merge partials: no stage or query hashes a key
    to a bucket by hand."""
    found, counts = [], []
    for path in [QUERIES, *sorted((PKG / "stages").glob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, fn) for fn, _ in _knuth_constants(tree)]
        if path != QUERIES:
            counts += _bucket_count_params(tree)
    assert sorted(found) == [("dedup.py", "bucket_ids"),
                             ("queries.py", "_knuth32")]
    assert sorted(counts) == ["bucket_ids", "hll_partial", "sketch_partial"]
