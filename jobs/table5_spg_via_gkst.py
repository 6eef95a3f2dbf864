"""Table 5 — speedups for *generating SPG_k(s,t)* by first computing
G^k_st with KHSQ⁺ and then running JOIN / PathEnum on it (k=6).

Speedup = T(algo on G) / (T(KHSQ⁺) + T(algo on G^k_st)). The paper reports
~0.5–16× for PathEnum and notes JOIN mostly times out; §6.8's conclusion —
that even the boosted baselines stay far behind EVE — is reported alongside
(the EVE column).
"""
from _common import base_parser, cells, emit

DEFAULT_DATASETS = ["wn", "uk", "sf", "bk", "tw", "bs", "gg", "wt", "lj"]
LABELS = ["JOIN", "PathEnum", "EVE total (s)"]


def main() -> None:
    parser = base_parser(__doc__)
    args = parser.parse_args()
    if args.k and len(args.k) > 1:
        parser.error("Table 5 runs one k; give one --k value")
    from repro.bench_harness import fmt_markdown_table, run_eve, run_gkst, run_spg_via_enumeration

    def measure(spark, w):
        """The cell of each of ``LABELS``."""
        gkp, t_gkp = run_gkst(spark, w, adaptive=True)
        eve_res, t_eve = run_eve(spark, w)
        truth = [r.spg for r in eve_res]
        speedups = []
        for algo in ("join", "pathenum"):
            base, t_base = run_spg_via_enumeration(spark, w, algo, max_rows=args.max_rows)
            redr, t_red = run_spg_via_enumeration(
                spark, w, algo, reduced=gkp, max_rows=args.max_rows
            )
            if base is None or redr is None:
                speedups.append("INF")
                continue
            assert redr == truth, f"{algo} on G^k_st produced a wrong SPG"
            speedups.append(t_base / (t_gkp + t_red))
        return [*speedups, t_eve]

    datasets = args.datasets or DEFAULT_DATASETS
    k = (args.k or [6])[0]
    out = cells(args, "table5", datasets, [k], measure)
    rows = [
        [label] + ["n/a" if isinstance(out[name, k], RuntimeError)
                   else out[name, k][i] for name in datasets]
        for i, label in enumerate(LABELS)
    ]
    table = fmt_markdown_table([""] + datasets, rows)
    emit(
        f"### Table 5 — speedups for generating SPG_k on G^k_st "
        f"(k={k}, scale={args.scale}, Q={args.queries})\n\n{table}",
        args.out,
    )


if __name__ == "__main__":
    main()
