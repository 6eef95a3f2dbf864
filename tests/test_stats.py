"""The §6.6 redundant ratio of an EVE result."""
from array import array

from repro.core.eve import EveResult, answer_positions
from repro.graphs.datasets import dataset_edges_pdf
from repro.graphs.model import adjacency
from repro.graphs.queries import random_queries


def _res(spg, upper):
    edges = sorted(upper)
    spg_at, upper_at = (array("i", map(edges.index, es)) for es in (spg, upper))
    return EveResult(0, 1, 5, edges, spg_at, array("i"), upper_at)


def test_redundant_ratio():
    r = _res({(0, 1), (1, 2)}, {(0, 1), (1, 2), (2, 3)})
    assert r.redundant_ratio == 0.5
    assert _res(set(), set()).redundant_ratio == 0.0
    assert _res({(0, 1)}, {(0, 1)}).redundant_ratio == 0.0


def test_redundant_ratio_of_kernel_answers_matches_the_edge_sets():
    """On the kernel's answers, the ratio from array lengths is §6.6's
    ``(|E(SPG^u)| − |E(SPG)|) / |E(SPG)|`` over the decoded edge sets."""
    pdf = dataset_edges_pdf("tw", "bench")
    g = adjacency(pdf)
    edges, ratios = g.edge_list(), []
    for s, t in random_queries(pdf, 6, 16, seed=1):
        definite, undetermined, confirmed, _ = answer_positions(g, (s, t), 6)
        res = EveResult(s, t, 6, edges, definite + confirmed, definite, undetermined)
        upper, spg = res.definite | res.undetermined, res.spg
        ratios.append(res.redundant_ratio)
        assert ratios[-1] == ((len(upper) - len(spg)) / len(spg) if spg else 0.0)
    assert any(ratios)
