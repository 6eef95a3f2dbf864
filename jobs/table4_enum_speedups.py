"""Table 4 — speedups for hop-constrained s-t simple path enumeration.

For each (dataset, k) cell: time PathEnum on the original graph G, then on
the KHSQ subgraph G^k_st, the KHSQ⁺ subgraph, and on EVE's SPG_k.
Speedup = T(PathEnum on G) / T(PathEnum on reduced graph); the paper's
KHSQ row includes subgraph-generation time (which is why its speedups fall
below 1) — we report both conventions.
"""
from _common import base_parser, cells, emit

DEFAULT_DATASETS = ["ps", "sf", "bk", "tw", "bs", "wt", "lj", "dl"]
DEFAULT_K = [3, 4, 5, 6]
LABELS = ["KHSQ", "KHSQ+", "EVE"]


def main() -> None:
    args = base_parser(__doc__).parse_args()
    from repro.bench_harness import (
        fmt_markdown_table,
        run_eve,
        run_gkst,
        run_path_enumeration,
    )

    def measure(spark, w):
        """The cell of each of ``LABELS``."""
        n0, t_base = run_path_enumeration(spark, w, "pathenum", max_rows=args.max_rows)
        if n0 is None:
            return ["base INF"] * len(LABELS)

        def speedup(prep_secs, reduced):
            n1, t_red = run_path_enumeration(
                spark, w, "pathenum", reduced=reduced, max_rows=args.max_rows
            )
            if n1 is None:
                return "INF"
            assert n1 == n0, f"path count changed on reduced graph: {n1} != {n0}"
            return f"{t_base / (prep_secs + t_red):.1f} ({t_base / t_red:.1f})"

        gk, t_gk = run_gkst(spark, w, adaptive=False)
        khsq = speedup(t_gk, gk)
        gkp, t_gkp = run_gkst(spark, w, adaptive=True)
        khsqp = speedup(t_gkp, gkp)
        eve_res, t_eve = run_eve(spark, w)
        return [khsq, khsqp, speedup(t_eve, [r.spg for r in eve_res])]

    datasets = args.datasets or DEFAULT_DATASETS
    ks = args.k or DEFAULT_K
    out = cells(args, "table4", datasets, ks, measure)
    parts = [
        f"### Table 4 — PathEnum speedups on reduced search spaces "
        f"(scale={args.scale}, Q={args.queries}; cell = incl-prep (excl-prep))"
    ]
    for i, label in enumerate(LABELS):
        rows = [
            [f"k={k}"] + ["n/a" if isinstance(out[name, k], RuntimeError)
                          else out[name, k][i] for name in datasets]
            for k in ks
        ]
        parts.append(
            f"\n**{label}**\n\n"
            + fmt_markdown_table([""] + datasets, rows)
        )
    emit("\n".join(parts), args.out)


if __name__ == "__main__":
    main()
