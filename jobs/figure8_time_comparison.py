"""Figure 8 (as a table) — total SPG-generation time: EVE vs JOIN vs
PathEnum, per (dataset, k). The paper's headline result: EVE wins
everywhere, by growing margins on dense graphs and larger k (baselines
hit INF). Also records EVE's per-phase split (Fig. 10(c))."""
from _common import base_parser, cells, emit

DEFAULT_DATASETS = ["ps", "ye", "wn", "bk", "tw", "bs", "wt"]
DEFAULT_K = [4, 6]


def main() -> None:
    args = base_parser(__doc__).parse_args()
    from repro.bench_harness import fmt_markdown_table, run_eve, run_spg_via_enumeration
    from repro.core.reference import PHASES

    def measure(spark, w):
        eve_res, t_eve = run_eve(spark, w)
        truth = [r.spg for r in eve_res]
        times = [t_eve]
        for algo in ("join", "pathenum"):
            spg, t = run_spg_via_enumeration(spark, w, algo, max_rows=args.max_rows)
            assert spg is None or spg == truth, f"{algo} SPG mismatch on {w.name} k={w.k}"
            times.append(None if spg is None else t)  # None reads INF
        # Each query's phases, summed over the batch (worker seconds).
        phases = "/".join(f"{sum(r.timings[p] for r in eve_res):.2f}" for p in PHASES)
        return [*times, phases]

    out = cells(args, "figure8", args.datasets or DEFAULT_DATASETS,
                args.k or DEFAULT_K, measure)
    table = fmt_markdown_table(
        ["dataset", "k", "EVE (s)", "JOIN (s)", "PathEnum (s)",
         "EVE phases d/p/l/v (s)"],
        [[name, k, *v] for (name, k), v in out.items() if not isinstance(v, RuntimeError)],
    )
    emit(
        f"### Figure 8 as a table — total SPG-generation time "
        f"(scale={args.scale}, Q={args.queries} per cell)\n\n{table}",
        args.out,
    )


if __name__ == "__main__":
    main()
