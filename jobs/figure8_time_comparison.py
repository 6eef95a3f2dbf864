"""Figure 8 (as a table) — total SPG-generation time: EVE vs JOIN vs
PathEnum, per (dataset, k). The paper's headline result: EVE wins
everywhere, by growing margins on dense graphs and larger k (baselines
hit INF). Also records EVE's per-phase split (Fig. 10(c))."""
from _common import base_parser, emit

DEFAULT_DATASETS = ["ps", "ye", "wn", "bk", "tw", "bs", "wt"]
DEFAULT_K = [4, 6]


def main() -> None:
    args = base_parser(__doc__).parse_args()
    from repro.bench_harness import (
        fmt_markdown_table,
        make_session,
        make_workload,
        run_eve,
        run_spg_via_enumeration,
    )
    from repro.core.reference import PHASES

    spark = make_session("figure8")
    datasets = args.datasets or DEFAULT_DATASETS
    ks = args.k or DEFAULT_K
    rows = []
    warm = False
    for name in datasets:
        for k in ks:
            try:
                w = make_workload(
                    spark, name, k,
                    scale=args.scale, n_queries=args.queries, seed=args.seed,
                )
            except RuntimeError:
                continue
            if not warm:
                # One untimed call of every runner, so that the first cell
                # does not pay for the cold session.
                run_eve(spark, w)
                for algo in ("join", "pathenum"):
                    run_spg_via_enumeration(spark, w, algo, max_rows=args.max_rows)
                warm = True
            eve_res, t_eve = run_eve(spark, w)
            truth = [r.spg for r in eve_res]
            cells = [name, k, round(t_eve, 1)]
            for algo in ("join", "pathenum"):
                spg, t = run_spg_via_enumeration(
                    spark, w, algo, max_rows=args.max_rows
                )
                if spg is None:
                    cells.append(None)  # INF
                else:
                    assert spg == truth, f"{algo} SPG mismatch on {name} k={k}"
                    cells.append(round(t, 1))
            # Each query's phases, summed over the batch (worker seconds).
            cells.append(
                "/".join(f"{sum(r.timings[p] for r in eve_res):.2f}" for p in PHASES)
            )
            rows.append(cells)
            print(f"[figure8] {cells}", flush=True)
            w.close()
    table = fmt_markdown_table(
        ["dataset", "k", "EVE (s)", "JOIN (s)", "PathEnum (s)",
         "EVE phases d/p/l/v (s)"],
        rows,
    )
    emit(
        f"### Figure 8 as a table — total SPG-generation time "
        f"(scale={args.scale}, Q={args.queries} per cell)\n\n{table}",
        args.out,
    )
    spark.stop()


if __name__ == "__main__":
    main()
