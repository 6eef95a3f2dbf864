"""Edge-DataFrame graph model.

A directed graph is a Spark DataFrame with columns ``src: long`` and
``dst: long``. The generators emit each edge once (the paper's graphs are
simple directed graphs), but nothing deduplicates the input:
``eve_spg_batch`` accepts duplicate rows and :func:`adjacency` keeps them.
Self-loops are permitted in the input and are provably never part of any
simple path graph, so the algorithms label them failing automatically.

The Spark baselines also run on a per-query ``(qid, src, dst)`` edge table
(each query's reduced graph); :func:`join_out_edges` is the one join that
serves both shapes.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

#: Canonical schema for an edge list.
EDGE_SCHEMA = "src long, dst long"


def reverse_edges(edges: DataFrame) -> DataFrame:
    """The reversed graph ``G^r``: every edge ``(u,v)`` becomes ``(v,u)``.

    Preserves a ``qid`` column when present (per-query edge sets)."""
    cols = [F.col("dst").alias("src"), F.col("src").alias("dst")]
    if "qid" in edges.columns:
        cols = [F.col("qid")] + cols
    return edges.select(*cols)


def join_out_edges(df: DataFrame, key: str, edges: DataFrame) -> DataFrame:
    """``df``'s rows, each met by the edges that leave vertex ``df[key]``:
    ``df``'s columns plus ``dst``.

    ``df`` carries a ``qid`` column. ``edges`` is a shared ``(src, dst)``
    table or a per-query ``(qid, src, dst)`` table; in the latter case the
    join matches ``qid`` too, so each query walks only its own edges."""
    e = edges.withColumnsRenamed({"qid": "eqid", "src": "esrc"})
    on = df[key] == e["esrc"]
    if "qid" in edges.columns:
        on = (df["qid"] == e["eqid"]) & on
    return df.join(e, on).drop("eqid", "esrc")


def adjacency(edges_pdf: pd.DataFrame) -> dict[int, list[int]]:
    """Out-adjacency dict from a pandas edge list (driver-side helper)."""
    adj: dict[int, list[int]] = {}
    for u, v in zip(edges_pdf["src"].tolist(), edges_pdf["dst"].tolist()):
        adj.setdefault(int(u), []).append(int(v))
    return adj
