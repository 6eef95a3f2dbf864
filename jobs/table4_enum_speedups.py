"""Table 4 — speedups for hop-constrained s-t simple path enumeration.

For each (dataset, k) cell: time PathEnum on the original graph G, then on
the KHSQ subgraph G^k_st, the KHSQ⁺ subgraph, and on EVE's SPG_k.
Speedup = T(PathEnum on G) / T(PathEnum on reduced graph); the paper's
KHSQ row includes subgraph-generation time (which is why its speedups fall
below 1) — we report both conventions.
"""
from _common import base_parser, emit

DEFAULT_DATASETS = ["ps", "sf", "bk", "tw", "bs", "wt", "lj", "dl"]
DEFAULT_K = [3, 4, 5, 6]


def main() -> None:
    args = base_parser(__doc__).parse_args()
    from repro.bench_harness import (
        fmt_markdown_table,
        make_session,
        make_workload,
        run_eve,
        run_gkst,
        run_path_enumeration,
    )

    spark = make_session("table4")
    datasets = args.datasets or DEFAULT_DATASETS
    ks = args.k or DEFAULT_K
    out_rows = {"KHSQ": [], "KHSQ+": [], "EVE": []}
    warm = False
    for k in ks:
        r_khsq, r_khsqp, r_eve = [f"k={k}"], [f"k={k}"], [f"k={k}"]
        for name in datasets:
            try:
                w = make_workload(
                    spark, name, k,
                    scale=args.scale, n_queries=args.queries, seed=args.seed,
                )
            except RuntimeError:
                for r in (r_khsq, r_khsqp, r_eve):
                    r.append("n/a")
                continue
            if not warm:
                # One untimed call of every runner, so that the first cell
                # does not pay for the cold session.
                gk, _ = run_gkst(spark, w, adaptive=False)
                run_gkst(spark, w, adaptive=True)
                run_eve(spark, w)
                run_path_enumeration(spark, w, "pathenum", max_rows=args.max_rows)
                run_path_enumeration(
                    spark, w, "pathenum", reduced=gk, max_rows=args.max_rows
                )
                warm = True
            n0, t_base = run_path_enumeration(
                spark, w, "pathenum", max_rows=args.max_rows
            )
            if n0 is None:
                for r in (r_khsq, r_khsqp, r_eve):
                    r.append("base INF")
                w.close()
                continue

            def cell(prep_secs, reduced, row):
                n1, t_red = run_path_enumeration(
                    spark, w, "pathenum", reduced=reduced, max_rows=args.max_rows
                )
                if n1 is None:
                    row.append("INF")
                    return
                assert n1 == n0, f"path count changed on reduced graph: {n1} != {n0}"
                row.append(
                    f"{t_base / (prep_secs + t_red):.1f} ({t_base / t_red:.1f})"
                )

            gk, t_gk = run_gkst(spark, w, adaptive=False)
            cell(t_gk, gk, r_khsq)
            gkp, t_gkp = run_gkst(spark, w, adaptive=True)
            cell(t_gkp, gkp, r_khsqp)
            eve_res, t_eve = run_eve(spark, w)
            cell(t_eve, [r.spg for r in eve_res], r_eve)
            w.close()
            print(f"[table4] k={k} {name}: khsq={r_khsq[-1]} "
                  f"khsq+={r_khsqp[-1]} eve={r_eve[-1]}", flush=True)
        out_rows["KHSQ"].append(r_khsq)
        out_rows["KHSQ+"].append(r_khsqp)
        out_rows["EVE"].append(r_eve)

    parts = [
        f"### Table 4 — PathEnum speedups on reduced search spaces "
        f"(scale={args.scale}, Q={args.queries}; cell = incl-prep (excl-prep))"
    ]
    for label, rows in out_rows.items():
        parts.append(
            f"\n**{label}**\n\n"
            + fmt_markdown_table([""] + datasets, rows)
        )
    emit("\n".join(parts), args.out)
    spark.stop()


if __name__ == "__main__":
    main()
