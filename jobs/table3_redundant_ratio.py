"""Table 3 — average redundant ratio r_D of EVE's upper-bound graph.

For each (dataset, k ∈ {5,6,7,8}) cell, run a batch of random
k-hop-reachable queries with EVE and report the mean of
``r_D = (|E(SPG^u)| − |E(SPG)|) / |E(SPG)|`` — the paper finds < 0.05%
on most graphs (Table 3).
"""
from _common import base_parser, cells, emit

DEFAULT_DATASETS = [
    "ps", "ye", "wn", "uk", "sf", "bk", "tw", "bs",
    "gg", "hm", "wt", "lj", "dl", "fr", "hg",
]
DEFAULT_K = [5, 6, 7, 8]


def main() -> None:
    args = base_parser(__doc__).parse_args()
    from repro.bench_harness import fmt_markdown_table, run_eve

    def measure(spark, w):
        ratios = [r.redundant_ratio for r in run_eve(spark, w)[0]]
        return f"{100 * sum(ratios) / len(ratios):.4f}%"

    datasets = args.datasets or DEFAULT_DATASETS
    ks = args.k or DEFAULT_K
    out = cells(args, "table3", datasets, ks, measure)
    rows = [
        [name] + [f"n/a ({v})" if isinstance(v, RuntimeError) else v
                  for v in (out[name, k] for k in ks)]
        for name in datasets
    ]
    table = fmt_markdown_table(["dataset"] + [f"k={k}" for k in ks], rows)
    emit(
        f"### Table 3 — average redundant ratio r_D "
        f"(scale={args.scale}, Q={args.queries})\n\n{table}",
        args.out,
    )


if __name__ == "__main__":
    main()
