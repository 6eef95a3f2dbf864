"""Table 3 — average redundant ratio r_D of EVE's upper-bound graph.

For each (dataset, k ∈ {5,6,7,8}) cell, run a batch of random
k-hop-reachable queries with EVE and report the mean of
``r_D = (|E(SPG^u)| − |E(SPG)|) / |E(SPG)|`` — the paper finds < 0.05%
on most graphs (Table 3).
"""
from _common import base_parser, emit

DEFAULT_DATASETS = [
    "ps", "ye", "wn", "uk", "sf", "bk", "tw", "bs",
    "gg", "hm", "wt", "lj", "dl", "fr", "hg",
]
DEFAULT_K = [5, 6, 7, 8]


def main() -> None:
    args = base_parser(__doc__).parse_args()
    from repro.bench_harness import fmt_markdown_table, make_session, make_workload, run_eve

    spark = make_session("table3")
    datasets = args.datasets or DEFAULT_DATASETS
    ks = args.k or DEFAULT_K
    rows = []
    for name in datasets:
        row = [name]
        for k in ks:
            try:
                w = make_workload(
                    spark, name, k,
                    scale=args.scale, n_queries=args.queries, seed=args.seed,
                )
                results, _ = run_eve(spark, w)
                ratios = [r.redundant_ratio for r in results]
                row.append(f"{100 * sum(ratios) / len(ratios):.4f}%")
                w.close()
            except RuntimeError as exc:  # not enough reachable queries
                row.append(f"n/a ({exc})")
        rows.append(row)
        print(f"[table3] {name}: {row[1:]}", flush=True)
    table = fmt_markdown_table(
        ["dataset"] + [f"k={k}" for k in ks], rows
    )
    emit(
        f"### Table 3 — average redundant ratio r_D "
        f"(scale={args.scale}, Q={args.queries})\n\n{table}",
        args.out,
    )
    spark.stop()


if __name__ == "__main__":
    main()
