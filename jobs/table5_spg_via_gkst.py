"""Table 5 — speedups for *generating SPG_k(s,t)* by first computing
G^k_st with KHSQ⁺ and then running JOIN / PathEnum on it (k=6).

Speedup = T(algo on G) / (T(KHSQ⁺) + T(algo on G^k_st)). The paper reports
~0.5–16× for PathEnum and notes JOIN mostly times out; §6.8's conclusion —
that even the boosted baselines stay far behind EVE — is reported alongside
(the EVE column).
"""
from _common import base_parser, emit

DEFAULT_DATASETS = ["wn", "uk", "sf", "bk", "tw", "bs", "gg", "wt", "lj"]


def main() -> None:
    parser = base_parser(__doc__)
    args = parser.parse_args()
    if args.k and len(args.k) > 1:
        parser.error("Table 5 runs one k; give one --k value")
    from repro.bench_harness import (
        fmt_markdown_table,
        make_session,
        make_workload,
        run_eve,
        run_gkst,
        run_spg_via_enumeration,
    )

    spark = make_session("table5")
    datasets = args.datasets or DEFAULT_DATASETS
    k = (args.k or [6])[0]
    rows = {"JOIN": ["JOIN"], "PathEnum": ["PathEnum"], "EVE total (s)": ["EVE total (s)"]}
    warm = False
    for name in datasets:
        try:
            w = make_workload(
                spark, name, k,
                scale=args.scale, n_queries=args.queries, seed=args.seed,
            )
        except RuntimeError:
            for r in rows.values():
                r.append("n/a")
            continue
        if not warm:
            # One untimed call of every runner, so that the first cell does
            # not pay for the cold session.
            gkp, _ = run_gkst(spark, w, adaptive=True)
            run_eve(spark, w)
            for algo in ("join", "pathenum"):
                for reduced in (None, gkp):
                    run_spg_via_enumeration(
                        spark, w, algo, reduced=reduced, max_rows=args.max_rows
                    )
            warm = True
        gkp, t_gkp = run_gkst(spark, w, adaptive=True)
        eve_res, t_eve = run_eve(spark, w)
        truth = [r.spg for r in eve_res]
        for algo, label in (("join", "JOIN"), ("pathenum", "PathEnum")):
            base, t_base = run_spg_via_enumeration(
                spark, w, algo, max_rows=args.max_rows
            )
            redr, t_red = run_spg_via_enumeration(
                spark, w, algo, reduced=gkp, max_rows=args.max_rows
            )
            if base is None or redr is None:
                rows[label].append("INF")
                continue
            assert redr == truth, f"{algo} on G^k_st produced a wrong SPG"
            rows[label].append(round(t_base / (t_gkp + t_red), 2))
        rows["EVE total (s)"].append(round(t_eve, 1))
        print(f"[table5] {name}: {[r[-1] for r in rows.values()]}", flush=True)
        w.close()
    table = fmt_markdown_table([""] + datasets, list(rows.values()))
    emit(
        f"### Table 5 — speedups for generating SPG_k on G^k_st "
        f"(k={k}, scale={args.scale}, Q={args.queries})\n\n{table}",
        args.out,
    )
    spark.stop()


if __name__ == "__main__":
    main()
