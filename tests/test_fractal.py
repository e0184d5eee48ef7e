import itertools
import os
import pickle
import random
import subprocess
import sys

import numpy as np
import pytest

from eigenform_lab import (
    BoundaryGraph,
    FractalTriple,
    builtin,
    builtin_names,
    check_weights,
    hat_graph,
    validate,
)
from eigenform_lab._graphutil import adjacency, split_components

from oracles import (
    cell_graph_pairwise,
    connected_within,
    connectivity_flags_dfs,
    random_drawn_triples,
    validate_by_sets,
)


def test_builtin_gasket_shape(gasket):
    assert (gasket.N, gasket.k, gasket.num_vertices) == (3, 3, 6)
    assert gasket.cells == ((0, 3, 4), (3, 1, 5), (4, 5, 2))


def test_builtin_vicsek_shape(vicsek):
    assert (vicsek.N, vicsek.k, vicsek.num_vertices) == (4, 5, 16)


def test_builtin_tree_gasket_shape(tree_gasket):
    assert (tree_gasket.N, tree_gasket.k, tree_gasket.num_vertices) == (3, 3, 7)


def test_builtins_all_valid():
    for name in builtin_names():
        assert validate(builtin(name)) == [], name


def test_unknown_builtin():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin("sponge")


def test_validate_broken_fixed_point(gasket):
    broken = FractalTriple("broken", 3, 3, 6, ((3, 3, 4), (3, 1, 5), (4, 5, 2)))
    report = validate(broken)
    assert any("fixed-point condition at j=0" in v for v in report)


def test_validate_disconnected_cells():
    broken = FractalTriple("split", 2, 2, 4, ((0, 2), (3, 1)))
    report = validate(broken)
    assert any("cell graph disconnected" in v for v in report)


def test_validate_noninjective_cell():
    broken = FractalTriple("dup", 3, 3, 6, ((0, 3, 3), (3, 1, 5), (4, 5, 2)))
    assert any("not injective" in v for v in validate(broken))


def test_validate_boundary_reuse():
    # vertex 1 shows up inside cell 0
    broken = FractalTriple("reuse", 3, 3, 6, ((0, 1, 4), (3, 1, 5), (4, 5, 2)))
    report = validate(broken)
    assert any("boundary vertex 1 appears in cell 0" in v for v in report)


def test_validate_uncovered_vertex():
    broken = FractalTriple("gap", 3, 3, 7, ((0, 3, 4), (3, 1, 5), (4, 5, 2)))
    assert any("vertex id 6 does not occur" in v for v in validate(broken))


def test_validate_refuses_more_vertices_than_cell_entries():
    # 9 entries cover at most 9 ids: up to 9 the uncovered ids are listed one
    # by one, past it one count violation stands for them, whatever the size
    cells = ((0, 3, 4), (3, 1, 5), (4, 5, 2))
    for nv, want in [
        (9, [f"vertex id {x} does not occur in any cell" for x in (6, 7, 8)]),
        (10, ["vertex count must be at most the number of cell entries (10 > 9)"]),
        (10**18, [f"vertex count must be at most the number of cell entries ({10**18} > 9)"]),
    ]:
        triple = FractalTriple("gap", 3, 3, nv, cells)
        assert validate(triple) == validate_by_sets(triple) == want


def test_cell_entries_must_be_integers():
    # Python ints, numpy integers and integral floats are vertex ids; a
    # fractional float or a bool is refused, naming the cell and the value
    cells = ((0, np.int64(2)), (2.0, 1))
    assert FractalTriple("x", 2, 2, 3, cells).cells == ((0, 2), (2, 1))
    assert all(type(x) is int for cell in FractalTriple("x", 2, 2, 3, cells).cells for x in cell)
    for bad, shown in [(2.7, "2.7"), (True, "True"), (np.True_, "np.True_")]:
        with pytest.raises(ValueError, match=f"cell 1 holds {shown}, which is not an integer"):
            FractalTriple("x", 2, 2, 3, ((0, 2), (bad, 1)))


def test_triples_built_apart_hash_and_compare_equal(gasket):
    # the hash is taken once, at construction, from the values equality compares
    cells = [[float(v) for v in cell] for cell in gasket.cells]
    twin = FractalTriple(gasket.name, gasket.N, gasket.k, gasket.num_vertices, cells)
    assert twin is not gasket
    assert twin == gasket and hash(twin) == hash(gasket)
    renamed = FractalTriple("renamed", gasket.N, gasket.k, gasket.num_vertices, gasket.cells)
    assert renamed != gasket
    assert {gasket: 1}.get(twin) == 1 and {gasket: 1}.get(renamed) is None


def test_an_unpickled_triple_hashes_by_its_own_process(gasket):
    # another hash seed hashes the name differently; the hash must follow
    code = (
        "import pickle, sys; t = pickle.load(sys.stdin.buffer); "
        "print(hash(t) == hash((t.name, t.N, t.k, t.num_vertices, t.cells)))"
    )
    env = dict(os.environ, PYTHONHASHSEED="1" if os.environ.get("PYTHONHASHSEED") != "1" else "2")
    out = subprocess.run(
        [sys.executable, "-c", code], input=pickle.dumps(gasket), capture_output=True, env=env
    )
    assert out.stdout.decode().strip() == "True", out.stderr.decode()


def _mutated(triple, rng):
    """``triple`` with one to three cell entries replaced by ids drawn from
    -1 to ``num_vertices``, so every element check gets something to find."""
    cells = [list(cell) for cell in triple.cells]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(triple.k)
        cells[i][rng.randrange(triple.N)] = rng.randint(-1, triple.num_vertices)
    return FractalTriple(triple.name, triple.N, triple.k, triple.num_vertices, tuple(map(tuple, cells)))


def test_validate_matches_set_oracle():
    # every message, in order: unfiltered random draws (about half refused,
    # as disconnected or with uncovered ids), the same draws with a few
    # entries overwritten, and one hand-made triple per kind of violation
    rng = random.Random(31)
    draws = itertools.chain(
        itertools.islice(random_drawn_triples(31), 10000),
        itertools.islice(random_drawn_triples(32, 5, 6), 10000),
    )
    refused = 0
    for triple, _ in draws:
        want = validate_by_sets(triple)
        assert validate(triple) == want, triple.cells
        refused += bool(want)
        if rng.random() < 0.2:
            mutated = _mutated(triple, rng)
            assert validate(mutated) == validate_by_sets(mutated), mutated.cells
    assert 6000 < refused < 14000
    gasket = builtin("gasket").cells
    made = {
        "ragged": ((0, 3, 4), (3, 1), (4, 5, 2)),
        "out-of-range": ((0, 3, 4), (3, 1, 6), (4, -1, 2)),
        "ragged and out-of-range": ((0, 3, 9), (3, 1), (4, 5, 2, 7)),
        "non-injective": ((0, 3, 3), (3, 1, 5), (4, 5, 2)),
        "misplaced boundary": ((0, 1, 4), (3, 1, 5), (4, 5, 2)),
        "broken fixed point": ((3, 0, 4), (3, 1, 5), (4, 5, 2)),
        "uncovered": gasket,
        "disconnected": ((0, 3, 4), (5, 1, 6), (7, 8, 2)),
    }
    for kind, cells in made.items():
        nv = 7 if kind == "uncovered" else 9 if kind == "disconnected" else 6
        triple = FractalTriple(kind, 3, 3, nv, cells)
        want = validate_by_sets(triple)
        assert want, kind
        assert validate(triple) == want, kind


def test_boundary_vertex_occurs_only_in_own_cell():
    for name in builtin_names():
        t = builtin(name)
        for j in range(t.N):
            owners = [i for i in range(t.k) if j in t.cells[i]]
            assert owners == [j]


def test_cell_graph_gasket(gasket):
    assert cell_graph_pairwise(gasket) == frozenset({(0, 1), (0, 2), (1, 2)})


def test_cell_graph_vicsek_star(vicsek):
    assert cell_graph_pairwise(vicsek) == frozenset({(0, 4), (1, 4), (2, 4), (3, 4)})


def test_cell_graph_single_cell():
    lonely = FractalTriple("one", 2, 1, 2, ((0, 1),))
    assert cell_graph_pairwise(lonely) == frozenset()


def test_connectivity_flags():
    assert connectivity_flags_dfs(builtin("vicsek")) == (True, True)
    assert connectivity_flags_dfs(builtin("tree_gasket")) == (False, False)
    assert connectivity_flags_dfs(builtin("gasket")) == (True, False)


def test_o_connected_implies_a_connected(gen):
    triples = [builtin(name) for name in builtin_names()]
    triples += [gen.simplex_gasket(d) for d in (4, 8, 12)]
    triples += [gen.vicsek(n) for n in range(5, 10)]
    triples += [gen.iterate(builtin(name), 3)[0] for name in ("gasket", "tree_gasket")]
    rng = random.Random(19)
    triples += [gen.relabel(t, [1.0] * t.k, rng)[0] for t in list(triples)]
    seen = set()
    for triple in triples:
        a_connected, o_connected = connectivity_flags_dfs(triple)
        assert not o_connected or a_connected, triple.name
        seen.add((a_connected, o_connected))
    assert {(True, True), (True, False), (False, False)} <= seen


def test_cell_graph_and_connectivity_match_pairwise_oracles(gen):
    triples = [builtin(name) for name in builtin_names()]
    triples += [gen.simplex_gasket(d) for d in range(4, 13)]
    triples += [gen.vicsek(n) for n in range(5, 10)]
    triples += [gen.iterate(builtin(name), 3)[0] for name in ("gasket", "tree_gasket")]
    rng = random.Random(23)
    triples += [gen.relabel(t, [1.0] * t.k, rng)[0] for t in list(triples)]
    for triple in triples:
        edges = cell_graph_pairwise(triple)
        k, n = triple.k, triple.N
        adj = adjacency(k, edges)
        subsets = [range(k), range(n, k), range(n)]
        subsets += [[i for i in range(k) if i != j] for j in range(n)]
        subsets += [[i for i in range(k) if rng.random() < 0.5] for _ in range(10)]
        for vs in subsets:
            assert (len(split_components(vs, adj)) <= 1) == connected_within(vs, adj)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        graphs = [hat_graph(triple)]
        graphs += [BoundaryGraph.from_edges(n, [p for p in pairs if rng.random() < 0.2]) for _ in range(5)]
        for g in graphs:
            assert g.is_connected() == connected_within(range(n), g.adjacency())


def test_check_weights(gasket):
    assert np.allclose(check_weights(gasket, [1, 2, 3]), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        check_weights(gasket, [1.0, 2.0])
    with pytest.raises(ValueError):
        check_weights(gasket, [1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        check_weights(gasket, [1.0, -1.0, 1.0])
