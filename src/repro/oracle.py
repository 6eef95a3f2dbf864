"""DuckDB correctness oracle.

The SQL builders below evaluate the paper's *definitions* directly — the
edges of SPG_k(s,t), the simple paths P*_k(s,t), bounded BFS distances — as
DuckDB recursive CTEs over an edge table ``edges (src, dst)``.
:func:`query` runs one of them over a pandas edge list, so a test can diff
any result of the program (EVE's SPG, a baseline's paths or distance maps)
against a third implementation that shares no code with it.
"""
import duckdb
import pandas as pd


def query(sql: str, edges_pdf: pd.DataFrame) -> list:
    """The rows of ``sql``, run in DuckDB with ``edges_pdf`` registered as
    the table ``edges``."""
    con = duckdb.connect()
    try:
        con.register("edges", edges_pdf)
        return con.execute(sql).fetchall()
    finally:
        con.close()


# ---------------------------------------------------------------------------
# Graph-query SQL builders (DuckDB recursive CTEs), each over the table
# ``edges`` with columns (src, dst).
# ---------------------------------------------------------------------------

def _walk_cte(s: int, t: int, k: int) -> str:
    # All simple paths s->t with <= k edges, enumerated as vertex lists.
    return f"""
WITH RECURSIVE walk(cur, verts) AS (
  SELECT {s}::BIGINT, [{s}::BIGINT]
  UNION ALL
  SELECT e.dst, list_append(w.verts, e.dst)
  FROM walk w JOIN edges e ON e.src = w.cur
  WHERE NOT list_contains(w.verts, e.dst)
    AND w.cur <> {t}
    AND len(w.verts) <= {k}
),
paths AS (SELECT verts FROM walk WHERE cur = {t} AND len(verts) >= 2)
"""


def spg_sql(s: int, t: int, k: int) -> str:
    """SQL for E(SPG_k(s,t)) over table ``edges`` → rows (src, dst)."""
    return (
        _walk_cte(s, t, k)
        + f"""
, idx AS (SELECT unnest(range(1, {k + 1})) AS i)
SELECT DISTINCT verts[i] AS src, verts[i+1] AS dst
FROM paths, idx WHERE i < len(verts)
"""
    )


def paths_sql(s: int, t: int, k: int) -> str:
    """SQL for P*_k(s,t) as canonical dash-joined strings → rows (path)."""
    return (
        _walk_cte(s, t, k)
        + """
SELECT DISTINCT array_to_string(verts, '-') AS path FROM paths
"""
    )


def distances_sql(source: int, max_depth: int, reversed_: bool = False) -> str:
    """SQL for bounded BFS distances from ``source`` → rows (v, dist)."""
    a, b = ("dst", "src") if reversed_ else ("src", "dst")
    return f"""
WITH RECURSIVE reach(v, d) AS (
  SELECT {source}::BIGINT, 0
  UNION
  SELECT e.{b}, r.d + 1
  FROM reach r JOIN edges e ON e.{a} = r.v
  WHERE r.d < {max_depth}
)
SELECT v, MIN(d)::INT AS dist FROM reach GROUP BY v HAVING MIN(d) <= {max_depth}
"""
