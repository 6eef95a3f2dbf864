"""The §6.6 redundant ratio of an EVE result."""
from array import array

from repro.core.eve import EveResult


def _res(spg, upper):
    edges = sorted(upper)
    spg_at, upper_at = (array("i", map(edges.index, es)) for es in (spg, upper))
    return EveResult(0, 1, 5, edges, spg_at, array("i"), upper_at)


def test_redundant_ratio():
    r = _res({(0, 1), (1, 2)}, {(0, 1), (1, 2), (2, 3)})
    assert r.redundant_ratio == 0.5
    assert _res(set(), set()).redundant_ratio == 0.0
    assert _res({(0, 1)}, {(0, 1)}).redundant_ratio == 0.0
