"""Synthetic stand-ins for the paper's 15 real networks (Table 2).

Every network from Table 2 is mapped to a seeded generator whose density and
hub structure stand in for the original at laptop-Spark scale. The paper's
*relative* density ordering is preserved (``ps`` densest, ``tw``/``wt``
sparsest) because EVE's advantage over enumeration grows with density — that
ordering, not absolute scale, is what the evaluation tables exercise.

``scale`` picks a size tier: ``"test"`` (~10× smaller, for unit/integration
tests) or ``"bench"`` (benchmark/Table scale).
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd

from repro.graphs.generators import random_digraph


@dataclass(frozen=True)
class DatasetSpec:
    """One Table-2 stand-in: generator kind + bench-scale size/density."""

    name: str
    paper_dataset: str
    kind: str  # er | power_law | community
    n: int  # |V| at bench scale
    avg_deg: float  # target d_avg at bench scale
    gtype: str  # the paper's "Type" column
    paper_v: str  # paper's |V| (for Table 2 diffing)
    paper_e: str
    paper_davg: float


#: The 15 stand-ins, in the paper's Table-2 order.
SPECS: list[DatasetSpec] = [
    DatasetSpec("ps", "econ-psmigr3", "er", 400, 40, "Economic", "3.1K", "540K", 172),
    DatasetSpec("ye", "bio-grid-yeast", "er", 600, 24, "Biological", "6K", "314K", 52),
    DatasetSpec("wn", "bio-WormNet-v3", "power_law", 1000, 20, "Biological", "16K", "763K", 47),
    DatasetSpec("uk", "web-uk-2005", "community", 1500, 28, "Web", "130K", "12M", 91),
    DatasetSpec("sf", "web-Stanford", "community", 3000, 14, "Web", "282K", "13M", 46),
    DatasetSpec("bk", "web-baidu-baike", "power_law", 4000, 6, "Web", "416K", "3.3M", 8),
    DatasetSpec("tw", "twitter-social", "power_law", 4000, 2, "Miscellaneous", "465K", "835K", 2),
    DatasetSpec("bs", "web-BerkStan", "community", 5000, 8, "Web", "685K", "7.6M", 11),
    DatasetSpec("gg", "web-Google", "power_law", 6000, 5, "Web", "876K", "5.1M", 6),
    DatasetSpec("hm", "bn-human-Jung2015", "er", 1200, 55, "Biological", "976K", "146M", 150),
    DatasetSpec("wt", "wikiTalk", "power_law", 8000, 2, "Miscellaneous", "2.4M", "5M", 2),
    DatasetSpec("lj", "soc-LiveJournal1", "community", 8000, 10, "Social", "4.8M", "68M", 14),
    DatasetSpec("dl", "dbpedia-link", "power_law", 10000, 6, "Miscellaneous", "18M", "137M", 7),
    DatasetSpec("fr", "soc-friendster", "community", 12000, 14, "Social", "66M", "1.8B", 28),
    DatasetSpec("hg", "web-cc12-hostgraph", "community", 12000, 12, "Web", "89M", "2B", 23),
]

BY_NAME = {s.name: s for s in SPECS}

_SCALES = {"test": 0.1, "bench": 1.0}


def dataset_edges_pdf(name: str, scale: str = "bench") -> pd.DataFrame:
    """The stand-in edge list for dataset ``name`` at a size tier."""
    spec = BY_NAME[name]
    factor = _SCALES[scale]
    n = max(30, int(spec.n * factor))
    avg_deg = max(1.5, spec.avg_deg * (1.0 if scale == "bench" else 0.6))
    # Stable per-dataset seed offset (builtin hash() is salted per process).
    offset = sum(ord(c) * 31**i for i, c in enumerate(name)) % 1000
    return random_digraph(spec.kind, n, avg_deg, seed=7 + offset)
