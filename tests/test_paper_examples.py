"""Paper-fidelity tests: every worked example in the paper, on the
reconstructed Figure-1 graph (see ``repro.graphs.generators.FIG1_EDGES``).

The expected values below are transcribed from the paper itself —
Figure 5's essential-vertex tables, Examples 2.2/3.2/4.2/4.5/4.7/5.5/5.7,
the Lemma 3.3 counterexample, and the Theorem 4.8/4.9 properties — so these
tests double as evidence that the Figure-1 reconstruction is faithful.
"""
import pickle
from array import array

import pytest

from repro.baselines import bruteforce as bf
from repro.core.reference import ev_tables
from repro.core.verify import departures_arrivals
from repro.graphs.generators import FIG1_IDS as V
from repro.graphs.model import Graph, bfs_dist

S, T = "s", "t"


def _ev(entries: str) -> frozenset:
    """'s,a,h' → frozenset of vertex ids."""
    return frozenset(V[x] for x in entries.split(","))


# Figure 5(a): EV*_l(s, ·), l = 1..6 — every printed value, including the
# parenthesized ones (which exist but are skipped under pruning at k=7).
FIG5_FORWARD = {
    1: {"a": "s,a", "c": "s,c"},
    2: {"a": "s,a", "b": "s,c,b", "c": "s,c", "h": "s,a,h", "i": "s,a,i"},
    3: {"a": "s,a", "b": "s,b", "c": "s,c", "h": "s,a,h", "i": "s,a,i", "j": "s,j"},
    4: {"a": "s,a", "b": "s,b", "c": "s,c", "h": "s,h", "i": "s,a,i", "j": "s,j"},
    5: {"a": "s,a", "b": "s,b", "c": "s,c", "h": "s,h", "i": "s,i", "j": "s,j"},
    6: {"a": "s,a", "b": "s,b", "c": "s,c", "h": "s,h", "i": "s,i", "j": "s,j"},
}

# Figure 5(b): EV*_l(·, t), l = 1..6.
FIG5_BACKWARD = {
    1: {"b": "b,t", "c": "c,t"},
    2: {"a": "a,c,t", "b": "b,t", "c": "c,t", "h": "h,b,t"},
    3: {"a": "a,t", "b": "b,t", "c": "c,t", "h": "h,b,t", "j": "j,h,b,t"},
    4: {"a": "a,t", "b": "b,t", "c": "c,t", "h": "h,b,t", "i": "i,j,h,b,t",
        "j": "j,h,b,t"},
    5: {"a": "a,t", "b": "b,t", "c": "c,t", "h": "h,b,t", "i": "i,j,h,b,t",
        "j": "j,h,b,t"},
    6: {"a": "a,t", "b": "b,t", "c": "c,t", "h": "h,b,t", "i": "i,j,h,b,t",
        "j": "j,h,b,t"},
}

# Parenthesized (pruned at k=7) cells of Figure 5.
FIG5_FORWARD_PRUNED = {(4, "i"), (5, "i"), (5, "j"), (6, "a"), (6, "h"),
                       (6, "i"), (6, "j")}
FIG5_BACKWARD_PRUNED = {(5, "j"), (6, "b"), (6, "h"), (6, "i"), (6, "j")}

K = 7


@pytest.fixture(scope="module")
def fig1_ev_unpruned(fig1):
    radj = fig1.adj.rev
    return ev_tables(fig1.adj, V[S], V[T], K), ev_tables(radj, V[T], V[S], K)


@pytest.fixture(scope="module")
def fig1_ev_pruned(fig1):
    radj = fig1.adj.rev
    ds, dt = bfs_dist(fig1.adj, (V[S],), K), bfs_dist(radj, (V[T],), K)
    return (
        ev_tables(fig1.adj, V[S], V[T], K, dist_prune=dt),
        ev_tables(radj, V[T], V[S], K, dist_prune=ds),
    )


@pytest.mark.parametrize("l", sorted(FIG5_FORWARD))
def test_fig5_forward_values(fig1_ev_unpruned, l):
    """Figure 5(a): unpruned forward propagation reproduces every printed set."""
    evf, _ = fig1_ev_unpruned
    expected = {V[name]: _ev(val) for name, val in FIG5_FORWARD[l].items()}
    expected[V[S]] = frozenset({V[S]})
    assert evf[l] == expected


@pytest.mark.parametrize("l", sorted(FIG5_BACKWARD))
def test_fig5_backward_values(fig1_ev_unpruned, l):
    """Figure 5(b): unpruned backward propagation reproduces every printed set."""
    _, evb = fig1_ev_unpruned
    expected = {V[name]: _ev(val) for name, val in FIG5_BACKWARD[l].items()}
    expected[V[T]] = frozenset({V[T]})
    assert evb[l] == expected


def test_fig5_forward_pruning(fig1_ev_pruned):
    """Example 3.7 / Fig 5(a): exactly the parenthesized cells are skipped."""
    evf, _ = fig1_ev_pruned
    for l, row in FIG5_FORWARD.items():
        for name, val in row.items():
            if (l, name) in FIG5_FORWARD_PRUNED:
                assert V[name] not in evf[l], f"{name}@{l} should be pruned"
            else:
                assert evf[l][V[name]] == _ev(val), f"{name}@{l}"


def test_fig5_backward_pruning(fig1_ev_pruned):
    _, evb = fig1_ev_pruned
    for l, row in FIG5_BACKWARD.items():
        for name, val in row.items():
            if (l, name) in FIG5_BACKWARD_PRUNED:
                assert V[name] not in evb[l], f"{name}@{l} should be pruned"
            else:
                assert evb[l][V[name]] == _ev(val), f"{name}@{l}"


def test_example_3_2(fig1):
    """Example 3.2: EV*_2(s,b) = {s,c,b} and EV*_3(s,b) = {s,b}."""
    ev = bf.essential_sets(fig1.adj, V[S], V[T], 7)
    assert ev[V["b"]][2] == _ev("s,c,b")
    assert ev[V["b"]][3] == _ev("s,b")


def test_example_2_2_spg4(fig1, fig1_eve):
    """Example 2.2 / Fig 1(b)-(c): P*_4 and SPG_4."""
    paths = {tuple(p) for p in bf.simple_paths(fig1.adj, V[S], V[T], 4)}
    def ids(*names):
        return tuple(V[n] for n in names)
    # The five 4-hop-constrained simple paths of Figure 1(b).
    assert paths == {
        ids("s", "c", "t"),
        ids("s", "a", "c", "t"),
        ids("s", "c", "b", "t"),
        ids("s", "a", "c", "b", "t"),
        ids("s", "a", "h", "b", "t"),
    }
    res = fig1_eve[4]
    assert res.spg == bf.spg_edges(fig1.adj, V[S], V[T], 4)
    assert res.upper == res.spg  # Theorem 4.8


def test_lemma_3_3_counterexample(fig1, fig1_eve):
    """Lemma 3.3: e(b,a) has disjoint EV pairs at k=7 yet is not in SPG_7."""
    ev_f = bf.essential_sets(fig1.adj, V[S], V[T], 7)
    ev_b = bf.essential_sets(fig1.adj.rev, V[T], V[S], 7)
    assert ev_f[V["b"]][3] == _ev("s,b")
    assert ev_b[V["a"]][2] == _ev("a,c,t")
    assert not (ev_f[V["b"]][3] & ev_b[V["a"]][2])
    res = fig1_eve[7]
    e_ba = (V["b"], V["a"])
    assert e_ba in res.undetermined  # promising by essential vertices …
    assert e_ba not in res.spg  # … but verification rejects it


def test_upper_bound_redundancy_is_exactly_eba(fig1_eve):
    """At k=7 the only redundant upper-bound edge is e(b,a) (Ex. from §3/4)."""
    res = fig1_eve[7]
    assert res.upper - res.spg == {(V["b"], V["a"])}


def test_example_4_2(fig1_eve):
    """Example 4.2: e(i,j) ∈ SPG^u_7; e(b,j) is a failing edge."""
    res = fig1_eve[7]
    assert (V["i"], V["j"]) in res.upper
    assert (V["b"], V["j"]) not in res.upper


@pytest.mark.parametrize("edge", [("s", "a"), ("a", "i")])
def test_examples_4_5_and_4_7_definite(fig1_eve, edge):
    """Examples 4.5/4.7: e(s,a) and e(a,i) are definite edges at k=7."""
    res = fig1_eve[7]
    assert (V[edge[0]], V[edge[1]]) in res.definite


def test_example_5_5_departures_arrivals(fig1_eve):
    """Example 5.5: c is both a departure (In_D={a}) and an arrival
    (Out_A={b}); Example 5.7: i ∈ D with In_D(i)={a}, h ∈ A with Out_A(h)={b}."""
    res = fig1_eve[7]
    spgu = Graph(sorted(res.upper))
    in_d, out_a = departures_arrivals(spgu, spgu.rev, V[S], V[T], 7)
    assert in_d[V["c"]] == [V["a"]]
    assert out_a[V["c"]] == [V["b"]]
    assert in_d[V["i"]] == [V["a"]]
    assert out_a[V["h"]] == [V["b"]]


def test_example_5_7_verification(fig1, fig1_eve):
    """Example 5.7: undetermined e(i,j) and e(j,h) are confirmed at k=7."""
    res = fig1_eve[7]
    assert (V["i"], V["j"]) in res.spg
    assert (V["j"], V["h"]) in res.spg
    assert res.spg == bf.spg_edges(fig1.adj, V[S], V[T], 7)


@pytest.mark.parametrize("k", [4, 7])
def test_spg_is_definite_when_they_are_equal(fig1, fig1_eve, k):
    """At k=4 SPG = SPG^u (Theorem 4.8), so the result stores one array for
    ``spg`` and ``definite``, also once pickled; at k=7 verification adds
    e(i,j) and e(j,h) to the definite edges, and ``spg`` is still exact."""
    res = fig1_eve[k]
    assert isinstance(res.spg, frozenset) and isinstance(res.undetermined, frozenset)
    assert type(res._spg) is array and type(res._definite) is array
    assert (res._spg is res._definite) == (k == 4)
    back = pickle.loads(pickle.dumps(res))
    assert (back._spg is back._definite) == (k == 4) and back.spg == res.spg
    assert res.spg == bf.spg_edges(fig1.adj, V[S], V[T], k)


@pytest.mark.parametrize("k", [4, 5, 7])
def test_theorem_4_9_first_last_two_edges_definite(fig1, fig1_eve, k):
    """Theorem 4.9: the first two and last two edges of every simple path
    are definite edges."""
    res = fig1_eve[k]
    for p in bf.simple_paths(fig1.adj, V[S], V[T], k):
        edges = list(zip(p, p[1:]))
        head_tail = set(edges[:2]) | set(edges[-2:])
        assert head_tail <= res.definite


@pytest.mark.parametrize("k", [4, 5, 7])
def test_fig1_exact(fig1, fig1_eve, k):
    """EVE delivers the exact SPG on the running example for all tested k."""
    res = fig1_eve[k]
    truth = bf.spg_edges(fig1.adj, V[S], V[T], k)
    assert res.spg == truth
    assert res.upper >= truth
    assert res.definite <= truth
