"""Connected components of an undirected graph — the one operator
behind `stages/dedup.cluster_pairs_label_propagation` (int doc ids) and
`stages/linkgraph.graph_components` (string hosts).

Iterative min-label propagation WITH pointer jumping (label doubling —
the hash-to-min idea of Rastogi et al., "Finding Connected Components
in MapReduce"): each round every node adopts the min label among
itself and its neighbors, then ``label(v) ← label(label(v))``, so label
paths halve and the round count is O(log diameter).

Every exchange is one ``shuffle.sorted_runs``: one sort on the key,
then the kernel once per sorted block, which holds every row of its
keys; it works on the whole block with Arrow compute — no pandas, no
per-key call. A lookup that misses (a key run split after all) raises
instead of dropping a vote. Labels keep the node's Arrow type: int64
stays exact at any value, strings stay strings.

Per round: vote (edges keyed by source meet the label table), per-node
min, pointer jump — three exchanges. The min kernel flags the nodes
whose label moved, and one ``sum`` of the flags is the convergence
witness: if the min step moves no label, labels are constant along
every edge, and the jump cannot move one either (a component's minimum
keeps itself as label).
"""

from __future__ import annotations

import logging
import time

import pyarrow as pa
import pyarrow.compute as pc

from .shuffle import sorted_runs

_logger = logging.getLogger(__name__)

# blocks per per-round label table (see _mat_small)
LABEL_BLOCKS = 16


def _mat_small(ds):
    # The label table is O(#nodes): bound every per-round
    # materialization to a FIXED block count. Without this, each sort's
    # output inherits its (union-grown) input block count, so blocks —
    # and all-to-all sort cost — compound ~3× per round (measured
    # 11 s → 54 s → 311 s over three rounds at the 10× stress before
    # the cap; constant ~10 s/round after).
    return ds.repartition(LABEL_BLOCKS).materialize()


def _lookup(keys: pa.Array, value_keys: pa.Array,
            values: pa.Array) -> pa.Array:
    """values[position of each key in value_keys]; raises on a miss —
    every label and every edge source is a node with a label row."""
    got = pc.take(values, pc.index_in(keys, value_set=value_keys))
    if got.null_count:
        raise RuntimeError(
            "connected_components: a label is not a known node")
    return got


def _min_labels(t: pa.Table) -> pa.Table:
    """Votes (node, label, old) → one row per node: the min label, and
    ``changed`` = 1 where it differs from the node's old label (a node
    without one — round 0 — counts as changed)."""
    g = t.group_by("node").aggregate([("label", "min"), ("old", "min")])
    moved = pc.fill_null(
        pc.not_equal(g.column("label_min"), g.column("old_min")), True)
    return pa.table({
        "node": g.column("node"),
        "label": g.column("label_min"),
        "changed": pc.cast(moved, pa.int64()),
    })


def connected_components(edges_ds, a_col: str, b_col: str,
                         max_rounds: int = 10, strict: bool = True,
                         names=("node", "label")):
    """(a_col, b_col) edges → (node, label) Dataset, label = the MIN
    node of the node's component; ``names`` renames the two output
    columns. Edges with a null end are ignored; an empty edge set gives
    an empty table of the node type.

    ``strict=True`` raises when ``max_rounds`` rounds pass without the
    fixed point (a silent exit would return wrong labels for any
    component whose diameter exceeds the budget); ``strict=False``
    returns the partial labels for callers that checkpoint-and-continue.
    Labels never touch the driver: the witness is one scalar sum."""
    import ray.data as rd

    def _sym(t: pa.Table) -> pa.Table:
        # symmetric closure, built once: each edge carries labels both
        # ways; a null dst marks a label row in the vote exchange
        a = t.column(a_col)
        b = pc.cast(t.column(b_col), a.type)
        keep = pc.and_(pc.is_valid(a), pc.is_valid(b))
        a = a.filter(keep).combine_chunks()
        b = b.filter(keep).combine_chunks()
        return pa.table({
            "key": pa.concat_arrays([a, b]),
            "dst": pa.concat_arrays([b, a]),
            "label": pa.nulls(2 * len(a), a.type),
        })

    edges = edges_ds.select_columns([a_col, b_col]).map_batches(
        _sym, batch_format="pyarrow").materialize()
    if edges.count() == 0:
        # a map over no rows leaves no schema: type from the input
        schema = edges_ds.schema()
        typ = schema.types[schema.names.index(a_col)] if schema else None
        return rd.from_arrow(pa.table({n: pa.array([], typ or pa.null())
                                       for n in names}))
    schema = edges.schema()
    typ = schema.types[schema.names.index("key")]

    def _label_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": t.column("node"),
            "dst": pa.nulls(t.num_rows, typ),
            "label": t.column("label"),
        })

    def _vote(t: pa.Table) -> pa.Table:
        # one sorted block of label rows (dst null) and edge rows: each
        # edge votes its source's label onto its dst; each node keeps
        # its own label in play (labels never increase) and as ``old``
        is_lab = pc.is_null(t.column("dst"))
        lab = t.filter(is_lab)
        edg = t.filter(pc.invert(is_lab))
        lab_key = lab.column("key").combine_chunks()
        lab_val = lab.column("label").combine_chunks()
        votes = _lookup(edg.column("key").combine_chunks(), lab_key,
                        lab_val)
        return pa.table({
            "node": pa.concat_arrays(
                [edg.column("dst").combine_chunks(), lab_key]),
            "label": pa.concat_arrays([votes, lab_val]),
            "old": pa.concat_arrays([pa.nulls(len(votes), typ), lab_val]),
        })

    def _jump_rows(t: pa.Table) -> pa.Table:
        # request rows (key = v's label, asker = v) + own rows
        # (key = v, own = v's label), co-sorted by key
        n = t.num_rows
        node, label = t.column("node"), t.column("label")
        return pa.table({
            "key": pa.chunked_array(label.chunks + node.chunks, typ),
            "asker": pa.chunked_array(
                node.chunks + [pa.nulls(n, typ)], typ),
            "own": pa.chunked_array(
                [pa.nulls(n, typ)] + label.chunks, typ),
        })

    def _jump(t: pa.Table) -> pa.Table:
        is_own = pc.is_null(t.column("asker"))
        own = t.filter(is_own)
        req = t.filter(pc.invert(is_own))
        return pa.table({
            "node": req.column("asker").combine_chunks(),
            "label": _lookup(req.column("key").combine_chunks(),
                             own.column("key").combine_chunks(),
                             own.column("own").combine_chunks()),
        })

    def _out(ds):
        return ds.select_columns(["node", "label"]).rename_columns(
            dict(zip(["node", "label"], names)))

    # round 0: label(v) = min(v, neighbors) — edges keyed by dst, each
    # voting min(src, dst); the symmetric closure covers src itself
    labels = _mat_small(sorted_runs(edges.map_batches(
        lambda t: pa.table({
            "node": t.column("dst"),
            "label": pc.min_element_wise(t.column("key"), t.column("dst")),
            "old": t.column("label"),
        }), batch_format="pyarrow"), "node", _min_labels))
    for rnd in range(max_rounds):
        t0 = time.perf_counter()
        mins = _mat_small(sorted_runs(sorted_runs(
            [edges, labels.map_batches(_label_rows,
                                       batch_format="pyarrow")],
            "key", _vote), "node", _min_labels))
        changed = mins.sum("changed") or 0
        _logger.info("connected_components round %d: %d changed, %.2fs",
                     rnd + 1, changed, time.perf_counter() - t0)
        if changed == 0:
            return _out(mins)
        labels = _mat_small(sorted_runs(
            mins.map_batches(_jump_rows, batch_format="pyarrow"),
            "key", _jump))
    if strict:
        raise RuntimeError(
            f"connected_components did not converge in {max_rounds} "
            "rounds: no fixed point (a component's diameter exceeds the "
            "budget); raise max_rounds or pass strict=False for partial "
            "labels")
    return _out(labels)
