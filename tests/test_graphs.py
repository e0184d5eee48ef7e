import itertools
import random

import numpy as np
import pytest

from eigenform_lab import (
    BoundaryGraph,
    FractalTriple,
    InternalConsistencyError,
    builtin,
    builtin_names,
    complete_graph,
    components,
    hat_graph,
    lambda_graph,
    tilde_graph,
    validate,
)
from eigenform_lab import forms, graphs
from eigenform_lab._graphutil import adjacency, labels, pair_index, pair_list, split_components
from eigenform_lab.graphs import _lift, _single_images
from oracles import (
    l_j_image,
    lambda_graph_bfs,
    lift_edges_loop,
    random_valid_triples,
    single_images_bfs,
)


def edges(*pairs):
    return sorted(pairs)


def test_lambda_graph_gasket_complete(gasket):
    g = complete_graph(3)
    assert lambda_graph(gasket, g).sorted_edges() == edges((0, 1), (0, 2), (1, 2))


def test_lambda_graph_tree_blocks_crossing(tree_gasket):
    g = BoundaryGraph.from_edges(3, [(0, 1), (0, 2)])
    assert lambda_graph(tree_gasket, g).sorted_edges() == edges((0, 1), (0, 2))


def test_lambda_graph_monotone(gasket, tree_gasket, vicsek):
    rng = np.random.default_rng(21)
    for triple in (gasket, tree_gasket, vicsek):
        all_pairs = list(itertools.combinations(range(triple.N), 2))
        for _ in range(20):
            keep = [p for p in all_pairs if rng.random() < 0.6]
            extra = [p for p in all_pairs if rng.random() < 0.6]
            small = BoundaryGraph.from_edges(triple.N, keep)
            big = BoundaryGraph.from_edges(triple.N, keep + extra)
            assert lambda_graph(triple, small).edges <= lambda_graph(triple, big).edges


def test_lambda_graph_preserves_connectedness(gasket, vicsek):
    for triple in (gasket, vicsek):
        spanning = BoundaryGraph.from_edges(
            triple.N, [(i, i + 1) for i in range(triple.N - 1)]
        )
        assert lambda_graph(triple, spanning).is_connected()


def test_tilde_graph(gasket, tree_gasket, vicsek):
    assert tilde_graph(gasket).sorted_edges() == edges((0, 1), (0, 2), (1, 2))
    assert tilde_graph(tree_gasket).sorted_edges() == edges((0, 1), (0, 2))
    assert tilde_graph(vicsek).sorted_edges() == edges(
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    )


def test_hat_graph(gasket, tree_gasket, vicsek):
    assert hat_graph(gasket).sorted_edges() == edges((0, 1), (0, 2), (1, 2))
    assert hat_graph(tree_gasket).sorted_edges() == edges((0, 1), (0, 2))
    assert hat_graph(vicsek).sorted_edges() == edges(
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    )


def test_hat_graph_is_fixed_and_connected(gasket, tree_gasket, vicsek):
    for triple in (gasket, tree_gasket, vicsek):
        hat = hat_graph(triple)
        assert lambda_graph(triple, hat) == hat
        assert hat.is_connected()
        assert hat.edges >= tilde_graph(triple).edges


def test_components_gasket(gasket):
    comp = components(gasket, 0)
    assert comp.components == ((1, 2),)
    assert comp.beta == (0,)
    assert comp.periods == (1,)
    assert comp.c_prime == ((1, 2),)
    assert comp.c_second == ((),)


def test_components_tree_j0(tree_gasket):
    comp = components(tree_gasket, 0)
    assert comp.components == ((1,), (2,))
    assert comp.beta == (0, 1)
    assert comp.periods == (1, 1)
    assert comp.c_prime == ((1,), (2,))
    assert comp.c_second == ((), ())


def test_components_tree_j1(tree_gasket):
    comp = components(tree_gasket, 1)
    assert comp.components == ((0, 2),)
    assert comp.periods == (1,)
    assert comp.c_prime == ((0,),)
    assert comp.c_second == ((2,),)


def test_components_partition(gasket, tree_gasket, vicsek):
    for triple in (gasket, tree_gasket, vicsek):
        for j in range(triple.N):
            comp = components(triple, j)
            seen = sorted(x for c in comp.components for x in c)
            assert seen == [x for x in range(triple.N) if x != j]
            for s in range(comp.m):
                assert sorted(comp.c_prime[s] + comp.c_second[s]) == sorted(
                    comp.components[s]
                )
                assert comp.c_prime[s]


def test_twisted_tree_gasket_swaps_branches(twisted_tree_gasket):
    # the only test triple with a component period above 1
    t = twisted_tree_gasket
    assert validate(t) == []
    assert hat_graph(t).sorted_edges() == edges((0, 1), (0, 2))
    assert tilde_graph(t) == hat_graph(t)
    comp = components(t, 0)
    assert comp.components == ((1,), (2,))
    assert comp.beta == (1, 0)
    assert comp.periods == (2, 2)
    assert l_j_image(t, 0, {1}, 1) == {2}
    assert l_j_image(t, 0, {1}, 2) == {1}


def test_components_cached_per_triple(gen):
    # both call shapes share one entry, for every vertex of a 12-vertex boundary
    triple = gen.simplex_gasket(12)
    first = [components(triple, j) for j in range(triple.N)]
    hat = hat_graph(triple)
    assert all(components(triple, j, hat) is comp for j, comp in enumerate(first))
    assert all(components(triple, j) is comp for j, comp in enumerate(first))


def test_image_empty_set(tree_gasket):
    assert l_j_image(tree_gasket, 1, [], 1) == frozenset()


def test_image_blocked_branch(tree_gasket):
    assert l_j_image(tree_gasket, 1, [2], 1) == frozenset()


def test_image_gasket_spreads(gasket):
    assert l_j_image(gasket, 0, [1], 1) == frozenset({1, 2})


def test_image_power_composes(gasket, tree_gasket, vicsek):
    for triple in (gasket, tree_gasket, vicsek):
        for j in range(triple.N):
            rest = [x for x in range(triple.N) if x != j]
            for start in rest:
                one = l_j_image(triple, j, [start], 1)
                two = l_j_image(triple, j, [start], 2)
                assert two == l_j_image(triple, j, one, 1)
                assert l_j_image(triple, j, [start], 0) == frozenset({start})


def test_image_nonempty_iff_hat_edge(gasket, tree_gasket, vicsek):
    for triple in (gasket, tree_gasket, vicsek):
        hat = hat_graph(triple)
        for j in range(triple.N):
            for jp in range(triple.N):
                if jp == j:
                    continue
                img = l_j_image(triple, j, [jp], 1)
                assert bool(img) == hat.has_edge(j, jp)


def test_image_is_empty_or_full_component(gasket, tree_gasket, vicsek):
    for triple in (gasket, tree_gasket, vicsek):
        for j in range(triple.N):
            comp = components(triple, j)
            for jp in range(triple.N):
                if jp == j:
                    continue
                img = l_j_image(triple, j, [jp], 1)
                assert img == frozenset() or any(
                    img == frozenset(c) for c in comp.components
                )


def test_image_rejects_bad_vertex(tree_gasket):
    with pytest.raises(ValueError):
        l_j_image(tree_gasket, 1, [1], 1)
    with pytest.raises(ValueError):
        l_j_image(tree_gasket, 1, [5], 1)


@pytest.mark.parametrize("j", [-1, 3])
def test_components_refuses_a_vertex_outside_the_boundary(gasket, j):
    with pytest.raises(ValueError, match=f"^j={j} is not a boundary id$"):
        components(gasket, j)


def test_boundary_graph_builds_its_adjacency_once(monkeypatch, gen, twisted_tree_gasket):
    # the component data of every vertex read one read-only adjacency build
    # of a fresh graph, and give what one build per call gave; the cached
    # sets stay out of equality, hashing and repr
    calls = []
    monkeypatch.setattr(graphs, "adjacency", lambda n, e: calls.append(n) or adjacency(n, e))
    triples = [builtin(name) for name in builtin_names()]
    triples += [twisted_tree_gasket, gen.simplex_gasket(12), gen.vicsek(9)]
    for triple in triples:
        hat = hat_graph(triple)
        fresh = BoundaryGraph(hat.N, hat.edges)
        calls.clear()
        got = [graphs._component_data.__wrapped__(triple, j, fresh) for j in range(triple.N)]
        assert fresh.is_connected()
        assert calls == [triple.N]
        assert got == [components(triple, j) for j in range(triple.N)]
        for j, comp in enumerate(got):
            verts = [x for x in range(triple.N) if x != j]
            assert comp.components == tuple(split_components(verts, adjacency(triple.N, hat.edges)))
        assert fresh.adjacency() == tuple(tuple(sorted(a)) for a in adjacency(triple.N, hat.edges))
        assert (fresh, hash(fresh), repr(fresh)) == (hat, hash(hat), repr(hat))


def test_boundary_graph_validation():
    with pytest.raises(ValueError):
        BoundaryGraph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        BoundaryGraph.from_edges(3, [(0, 3)])


def _oracle_triples(gen, twisted):
    """The corpus, the twisted tree gasket and generated families, each
    followed by three seeded relabellings of its interior ids and
    non-boundary cells."""
    base = [builtin(name) for name in builtin_names()] + [twisted]
    base += [gen.simplex_gasket(d) for d in (4, 5, 8, 10, 12)]
    base += [gen.vicsek(n) for n in range(5, 10)]
    base += [
        gen.iterate(builtin(name), m)[0]
        for name, m in (("gasket", 3), ("vicsek", 2), ("tree_gasket", 3))
    ]
    base.append(gen.iterate(gen.simplex_gasket(4), 2)[0])
    out = []
    for i, triple in enumerate(base):
        out.append(triple)
        for s in range(3):
            out.append(gen.relabel(triple, [1.0] * triple.k, random.Random(100 * i + s))[0])
    return out


def _stable_graph_by_bfs(triple):
    g = tilde_graph(triple)
    while lambda_graph_bfs(triple, g) != g:
        g = lambda_graph_bfs(triple, g)
    return g


def test_graph_operators_match_bfs_oracle(gen, twisted_tree_gasket):
    rng = random.Random(11)
    for triple in _oracle_triples(gen, twisted_tree_gasket):
        n = triple.N
        hat = hat_graph(triple)
        assert _stable_graph_by_bfs(triple) == hat, triple.name
        pairs = list(itertools.combinations(range(n), 2))
        graphs = [hat]
        for _ in range(10):
            density = rng.random()
            graphs.append(BoundaryGraph.from_edges(n, [p for p in pairs if rng.random() < density]))
        for g in graphs:
            assert lambda_graph(triple, g) == lambda_graph_bfs(triple, g), triple.name
            for j in range(n):
                assert _single_images(triple, j, g) == single_images_bfs(triple, j, g), triple.name
        for j in range(n):
            for jp, img in single_images_bfs(triple, j, hat).items():
                assert l_j_image(triple, j, [jp]) == img


def test_stable_graph_matches_bfs_oracle_on_drawn_triples():
    # about 4 % of drawn triples need a second propagation pass over the
    # contact graph, which no built-in or family does
    beyond_contact = 0
    for triple, _ in itertools.islice(random_valid_triples(1, n_max=5, k_max=6), 1000):
        hat = hat_graph(triple)
        assert hat == _stable_graph_by_bfs(triple), triple.cells
        beyond_contact += hat != tilde_graph(triple)
        for j in range(triple.N):
            assert _single_images(triple, j, hat) == single_images_bfs(triple, j, hat), triple.cells
    assert beyond_contact >= 1


def test_survivors_are_the_members_whose_iterated_image_fills_the_component(
    gen, twisted_tree_gasket
):
    # c' and c'' by their definition: the periods[s]-fold image of a member is
    # its whole component or empty
    drawn = [t for t, _ in itertools.islice(random_valid_triples(1, n_max=5, k_max=6), 1000)]
    fixed = [builtin(name) for name in builtin_names()] + [twisted_tree_gasket, gen.simplex_gasket(8)]
    for triple in drawn + fixed:
        for j in range(triple.N):
            comp = components(triple, j)
            for s, members in enumerate(comp.components):
                image = {jp: l_j_image(triple, j, [jp], comp.periods[s]) for jp in members}
                assert comp.c_prime[s] == tuple(jp for jp in members if image[jp] == set(members))
                assert comp.c_second[s] == tuple(jp for jp in members if not image[jp])


def test_stable_graph_beyond_the_contact_graph(five_vertex_triple):
    t = five_vertex_triple
    assert tilde_graph(t).sorted_edges() == edges((0, 3), (0, 4), (1, 2), (1, 4), (2, 4))
    assert hat_graph(t).sorted_edges() == edges(
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4)
    )
    assert hat_graph(t) == _stable_graph_by_bfs(t)
    at0 = components(t, 0)
    assert at0.components == ((1, 2, 4), (3,))
    at3 = components(t, 3)
    assert at3.components == ((0, 1, 2, 4),)
    assert at3.c_prime == ((0,),)
    assert at3.c_second == ((1, 2, 4),)


def test_stable_graph_after_two_added_passes():
    # a drawn triple: the contact graph {02, 03, 12} gains 01 and 23, then 13
    t = FractalTriple(
        name="drawn",
        N=4,
        k=4,
        num_vertices=12,
        cells=((0, 11, 5, 6), (8, 1, 7, 9), (9, 5, 2, 6), (4, 11, 10, 3)),
    )
    once = lambda_graph(t, tilde_graph(t))
    assert tilde_graph(t).sorted_edges() == edges((0, 2), (0, 3), (1, 2))
    assert once.sorted_edges() == edges((0, 1), (0, 2), (0, 3), (1, 2), (2, 3))
    assert lambda_graph(t, once) == hat_graph(t) == complete_graph(4)
    assert hat_graph(t) == _stable_graph_by_bfs(t)


def test_graph_caches_key_on_cells(gen):
    # relabellings share name, N, k and vertex count with the original, and
    # boundary ids are fixed, so their stable graph and component data agree
    for triple in (gen.simplex_gasket(8), gen.vicsek(6), gen.iterate(builtin("tree_gasket"), 3)[0]):
        want_hat = hat_graph(triple)
        want = [components(triple, j) for j in range(triple.N)]
        for s in range(3):
            other = gen.relabel(triple, [1.0] * triple.k, random.Random(s))[0]
            assert (other.name, other.N, other.k, other.num_vertices) == (
                triple.name, triple.N, triple.k, triple.num_vertices
            )
            assert other.cells != triple.cells
            assert hat_graph(other) == want_hat
            assert [components(other, j) for j in range(other.N)] == want
            assert hat_graph(triple) == want_hat
            assert [components(triple, j) for j in range(triple.N)] == want


def _partition(labelled):
    """Vertex sets sharing a label."""
    blocks = {}
    for v, lab in enumerate(labelled):
        blocks.setdefault(lab, set()).add(v)
    return sorted(map(sorted, blocks.values()))


def test_labels_partition_like_split_components():
    # seeded random graphs from empty to dense, with isolated vertices and
    # parallel edges, and paths whose ids fall along them, the longest chain
    # of hooks; every label is the least id of its component
    rng = np.random.default_rng(37)
    graphs = [(1, [], []), (5, [], []), (4, [2, 2, 2], [3, 3, 3])]
    graphs += [(nv, list(range(nv - 1, 0, -1)), list(range(nv - 2, -1, -1))) for nv in (2, 9, 300)]
    graphs.append((300, list(range(1, 300)), list(range(299))))
    for _ in range(300):
        nv = int(rng.integers(1, 60))
        m = int(rng.integers(0, 2 * nv))
        p, q = rng.integers(0, nv, size=(2, m))
        graphs.append((nv, p.tolist(), q.tolist()))
    for nv, p, q in graphs:
        got = labels(nv, np.array(p, dtype=np.intp), np.array(q, dtype=np.intp))
        want = split_components(range(nv), adjacency(nv, zip(p, q)))
        assert _partition(got.tolist()) == sorted(map(list, want))
        for comp in want:
            assert set(got[list(comp)].tolist()) == {comp[0]}


def test_lift_edges_match_cell_loop(gen, twisted_tree_gasket):
    # every cell, a cell subset and the non-boundary cells, on random graphs
    rng = random.Random(41)
    triples = [t for t, _ in itertools.islice(random_valid_triples(2, n_max=5, k_max=6), 200)]
    triples += [twisted_tree_gasket, gen.simplex_gasket(8), gen.iterate(builtin("vicsek"), 2)[0]]
    for triple in triples:
        n, k = triple.N, triple.k
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(3):
            g = [p for p in pairs if rng.random() < rng.random()]
            for chosen in (None, [i for i in range(k) if rng.random() < 0.5], range(n, k)):
                lifted = frozenset(map(tuple, np.sort(_lift(triple, g, chosen)).tolist()))
                assert lifted == lift_edges_loop(triple, g, chosen)


def test_pair_list_and_complete_graph_follow_pair_index():
    # one canonical pair order, row by row: pair_list reads it off
    # pair_index, forms re-exports it, and the complete graph holds its pairs
    assert forms.pair_list is pair_list
    for n in range(2, 13):
        rows, cols = pair_index(n)
        assert pair_list(n) == list(zip(rows.tolist(), cols.tolist()))
        assert pair_list(n) == [(a, b) for a in range(n) for b in range(a + 1, n)]
        assert complete_graph(n) == BoundaryGraph.from_edges(n, pair_list(n))
