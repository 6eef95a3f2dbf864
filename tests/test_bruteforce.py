"""The brute-force reference itself, on graphs with known closed forms."""
import pytest

from repro.baselines import bruteforce as bf
from repro.graphs.generators import chain, grid
from repro.graphs.model import adjacency


def test_chain_paths():
    adj = adjacency(chain(6))
    assert bf.simple_paths(adj, 0, 5, 5) == [(0, 1, 2, 3, 4, 5)]
    assert bf.simple_paths(adj, 0, 5, 4) == []
    assert bf.spg_edges(adj, 0, 5, 5) == {(i, i + 1) for i in range(5)}


@pytest.mark.parametrize("rows,cols", [(2, 2), (3, 3), (3, 4)])
def test_grid_path_count_is_binomial(rows, cols):
    """#monotone paths corner-to-corner = C(rows+cols-2, rows-1)."""
    import math

    adj = adjacency(grid(rows, cols))
    k = rows + cols - 2
    paths = bf.simple_paths(adj, 0, rows * cols - 1, k)
    assert len(paths) == math.comb(rows + cols - 2, rows - 1)
    # every grid edge on some monotone path ⇒ SPG is the whole grid
    assert bf.spg_edges(adj, 0, rows * cols - 1, k) == set(
        zip(grid(rows, cols)["src"], grid(rows, cols)["dst"])
    )


def test_paths_respect_hop_constraint():
    adj = adjacency(grid(3, 3))
    for k in range(1, 7):
        for p in bf.simple_paths(adj, 0, 8, k):
            assert len(p) - 1 <= k
            assert len(set(p)) == len(p)  # simple


def test_essential_sets_chain():
    """On a chain every prefix vertex is essential at every layer."""
    adj = adjacency(chain(5))
    ev = bf.essential_sets(adj, 0, 4, 5)
    assert ev[2][2] == frozenset({0, 1, 2})
    assert ev[3][3] == frozenset({0, 1, 2, 3})
    assert 4 not in ev  # t excluded from propagation


def test_essential_sets_monotone_shrink():
    adj = adjacency(grid(3, 3))
    ev = bf.essential_sets(adj, 0, 8, 6)
    for v, per_l in ev.items():
        ls = sorted(per_l)
        for a, b in zip(ls, ls[1:]):
            assert per_l[b] <= per_l[a]
        for l in ls:
            assert v in per_l[l]


def test_spg_empty_when_unreachable():
    adj = adjacency(chain(4))
    assert bf.spg_edges(adj, 3, 0, 8) == set()
    assert bf.simple_paths(adj, 3, 0, 8) == []
