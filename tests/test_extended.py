"""Stress cases beyond the built-in corpus: a hexagonal seven-cell structure
and non-uniform weight vectors with closed-form eigenvalues."""

import numpy as np
import pytest

from eigenform_lab import (
    DirichletForm,
    FractalTriple,
    builtin,
    components,
    connectivity_flags,
    decide_uniqueness,
    find_eigenform,
    hat_graph,
    perron_component,
    stability_digraph,
    validate,
    verify_eigenform,
)
from eigenform_lab.renorm import OperatorCache
from eigenform_lab.uniqueness import _sink_sccs

from oracles import digraph_by_word_enumeration, has_two_disjoint_closed_subsets


@pytest.fixture(scope="module")
def snowflake():
    """Six corner cells around one center cell on a hexagonal boundary.

    Corner cell j glues its slot j+3 to center slot j and its slot j+2 to
    corner cell j+1's slot j+5; the remaining two non-fixed slots are fresh.
    """
    n = 6
    ids = {}
    counter = [n]

    def slot(j, p):
        p %= 6
        if p == j:
            return j
        if p == (j + 3) % 6:
            key = ("center", j)
        elif p == (j + 2) % 6:
            key = ("edge", j)
        elif p == (j + 4) % 6:
            key = ("edge", (j - 1) % 6)
        else:
            key = ("own", j, p)
        if key not in ids:
            ids[key] = counter[0]
            counter[0] += 1
        return ids[key]

    cells = [tuple(slot(j, p) for p in range(6)) for j in range(6)]
    cells.append(tuple(slot(p, (p + 3) % 6) for p in range(6)))
    return FractalTriple("snowflake", n, 7, counter[0], tuple(cells))


def test_snowflake_structure(snowflake):
    assert validate(snowflake) == []
    assert snowflake.num_vertices == 30
    flags = connectivity_flags(snowflake)
    assert flags.a_connected and not flags.o_connected
    assert len(hat_graph(snowflake).edges) == 15  # complete on six vertices


def test_snowflake_unique_eigenform(snowflake):
    r = np.ones(7)
    res = find_eigenform(snowflake, r)
    assert res.converged
    assert verify_eigenform(snowflake, r, res.form).converged
    # hexagonal symmetry: coefficients depend only on the vertex distance
    m = res.form.matrix()
    by_distance = {1: [], 2: [], 3: []}
    for a in range(6):
        for b in range(a + 1, 6):
            dist = min(b - a, 6 - (b - a))
            by_distance[dist].append(m[a, b])
    for vals in by_distance.values():
        assert np.allclose(vals, vals[0], rtol=1e-9)
    verdict = decide_uniqueness(snowflake, res.form, r)
    assert verdict.unique


def test_snowflake_digraph_matches_word_enumeration(snowflake):
    r = np.ones(7)
    res = find_eigenform(snowflake, r)
    dg = stability_digraph(snowflake, res.form, r)
    comp_by_j = {j: components(snowflake, j) for j in range(6)}
    brute = digraph_by_word_enumeration(snowflake, res.form, r, comp_by_j, dg.payload)
    assert dg.edges == brute
    sinks = _sink_sccs(dg.nodes, dg.edges)
    assert (len(sinks) == 1) == (not has_two_disjoint_closed_subsets(dg.nodes, dg.edges))


def test_twisted_tree_gasket_unique_with_period_two(twisted_tree_gasket, tree_gasket):
    t, r = twisted_tree_gasket, np.ones(3)
    for a in (1.0, 3.0):
        ver = verify_eigenform(t, r, DirichletForm(3, {(0, 1): a, (0, 2): a}))
        assert ver.converged
        assert ver.rho == pytest.approx(0.5, rel=1e-14)
        assert ver.residual == 0.0
    for a, b in ((1.0, 2.0), (2.0, 1.0)):
        ver = verify_eigenform(t, r, DirichletForm(3, {(0, 1): a, (0, 2): b}))
        assert not ver.converged
        assert ver.rho == pytest.approx(0.4, rel=1e-14)
    form = DirichletForm(3, {(0, 1): 1.0, (0, 2): 1.0})
    dg = stability_digraph(t, form, r)
    # the crosswise gluing couples the branches that the tree gasket keeps apart
    assert decide_uniqueness(t, form, r, digraph=dg).unique
    assert not decide_uniqueness(tree_gasket, form, r).unique
    for (j, s), pd in dg.payload.items():
        assert pd.period == (2 if j == 0 else 1)
        if pd.period == 2:
            assert pd.eigenvalue == pytest.approx(0.25, rel=1e-12)
    brute = digraph_by_word_enumeration(t, form, r, dg.component_data, dg.payload)
    assert dg.edges == brute


def test_tree_gasket_matched_branch_weights():
    # both branches scale by 5*2/(5+2), so the eigenvalue sits above one while
    # staying below every boundary weight
    triple = builtin("tree_gasket")
    r = np.array([5.0, 2.0, 2.0])
    res = find_eigenform(triple, r)
    assert res.converged
    assert res.rho == pytest.approx(10.0 / 7.0, rel=1e-9)
    cache = OperatorCache(triple, res.form, r)
    for j in range(3):
        comp = components(triple, j)
        for s in range(comp.m):
            pd = perron_component(cache, [(comp, s)])[0]
            assert pd.eigenvalue == pytest.approx((res.rho / r[j]) ** pd.period, rel=1e-9)
    verdict = decide_uniqueness(triple, res.form, r)
    assert not verdict.unique
    assert {frozenset(w) for w in verdict.witnesses} == {
        frozenset({(0, 0), (1, 0)}),
        frozenset({(0, 1), (2, 0)}),
    }


def test_vicsek_heavy_center():
    # corner-to-corner conductance is the series of corner, center, corner
    # copies: 1/(1/2 + 1/7 + 1/2) = 7/8
    triple = builtin("vicsek")
    r = np.array([2.0, 2.0, 2.0, 2.0, 7.0])
    res = find_eigenform(triple, r)
    assert res.converged
    assert res.rho == pytest.approx(7.0 / 8.0, rel=1e-10)
    verdict = decide_uniqueness(triple, res.form, r)
    assert not verdict.unique
    assert {frozenset(s) for s in verdict.sink_sccs} == {
        frozenset({(0, 0), (2, 0)}),
        frozenset({(1, 0), (3, 0)}),
    }
