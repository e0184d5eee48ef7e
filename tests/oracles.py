"""Brute-force reference computations used only as test oracles.

Each routine here recomputes a quantity by the most direct method available
(entry-by-entry Laplacian assembly, one dense LU solve of the whole interior
block, one reachability search per interior solve, single global Schur
reduction, one intersection per cell pair, set-based structural checks, one
breadth-first search per boundary vertex, one depth-first search per removed
boundary cell, round-based orbit closure, one functional product per orbit
span, one power iteration per Perron block, power iteration for projection
limits, exhaustive word enumeration, exhaustive subset enumeration, one
recursive call per JSON value) without going through the production code
paths it checks.  ``random_drawn_triples`` and ``random_valid_triples`` draw
the seeded inputs that some of them are checked on.

The paper's proof devices, which no library path needs, are defined here
alone: the harmonic and constrained extensions with their one-step energy,
the projections g and g~ with the limit pi, harmonicity at a vertex, the
harmonicity functional, the pair energy of a penalty table and the n-fold
image map L_j.  They read the library's private helpers; the extensions solve
through ``renorm._extend``, so a test fixing an arbitrary vertex set still
runs the production Kron schedule.
"""

import itertools
import json
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from eigenform_lab import (
    BoundaryGraph,
    ComponentData,
    DirichletForm,
    FractalTriple,
    PerronData,
    check_weights,
    energy,
    hat_graph,
    laplacian,
    pair_list,
    validate,
)
from eigenform_lab import spectral, uniqueness
from eigenform_lab._graphutil import adjacency, split_components
from eigenform_lab.errors import InternalConsistencyError, SingularInteriorError
from eigenform_lab.forms import _support_mask, _vertex_data
from eigenform_lab.graphs import _single_images
from eigenform_lab.renorm import OperatorCache, _extend
from eigenform_lab.uniqueness import _node_row, _sink_sccs, orbit_span


def _emit_recursive(value, parts, level):
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            parts.append(f"{inner}{json.dumps(key)}: ")
            _emit_recursive(item, parts, level + 1)
            parts.append(",\n" if i < len(value) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        if not seq:
            parts.append("[]")
            return
        flat = all(not isinstance(x, (dict, list, tuple, np.ndarray)) for x in seq)
        if flat:
            parts.append("[")
            for i, item in enumerate(seq):
                _emit_recursive(item, parts, level + 1)
                if i < len(seq) - 1:
                    parts.append(", ")
            parts.append("]")
        else:
            parts.append("[\n")
            for i, item in enumerate(seq):
                parts.append(inner)
                _emit_recursive(item, parts, level + 1)
                parts.append(",\n" if i < len(seq) - 1 else "\n")
            parts.append(pad + "]")
    elif isinstance(value, (bool, np.bool_)):
        parts.append("true" if value else "false")
    elif value is None:
        parts.append("null")
    elif isinstance(value, (int, np.integer)):
        parts.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        x = float(value)
        if not math.isfinite(x):
            raise ValueError(f"cannot serialize non-finite float {x}")
        parts.append(format(x, ".17g"))
    elif isinstance(value, str):
        parts.append(json.dumps(value))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_recursive(value) -> str:
    """``jsonio.dumps`` with one recursive call per value, scalars included,
    each scalar found through one ``isinstance`` chain."""
    parts: list[str] = []
    _emit_recursive(value, parts, 0)
    return "".join(parts)


def conductance_laplacian_loop(triple, form, weights):
    """First-level network Laplacian built entry by entry, cell by cell and
    pair by pair, skipping pairs without conductance."""
    nv = triple.num_vertices
    lap = np.zeros((nv, nv))
    m = form.matrix()
    for i, cell in enumerate(triple.cells):
        for a, b in pair_list(triple.N):
            c = m[a, b]
            if c <= 0.0:
                continue
            w = weights[i] * c
            p, q = cell[a], cell[b]
            lap[p, p] += w
            lap[q, q] += w
            lap[p, q] -= w
            lap[q, p] -= w
    return lap


def operators_by_lu(triple, form, weights):
    """Cell operators and Schur block of the first-level network, as
    ``OperatorCache`` lays them out, from one dense LU solve of the whole
    interior block of the entry-by-entry Laplacian."""
    n = triple.N
    lap = conductance_laplacian_loop(triple, form, weights)
    ext = np.linalg.solve(lap[n:, n:], -lap[n:, :n])
    ops = np.vstack([np.eye(n), ext])[np.array(triple.cells)]
    return ops, lap[:n, :n] + lap[n:, :n].T @ ext


def extension_by_lu(triple, form, weights, fixed, values):
    """Minimizing extension taking ``values`` on the sorted vertex ids
    ``fixed``, from one dense LU solve of the free block of the
    entry-by-entry Laplacian."""
    lap = conductance_laplacian_loop(triple, form, weights)
    pinned = set(fixed)
    free = [v for v in range(triple.num_vertices) if v not in pinned]
    out = np.empty(triple.num_vertices)
    out[fixed] = values
    out[free] = np.linalg.solve(lap[np.ix_(free, free)], -lap[np.ix_(free, fixed)] @ values)
    return out


@dataclass(frozen=True)
class ExtensionResult:
    """Minimizing extension over the first-level vertices.

    ``values[v]`` is the extension at vertex id ``v``; ``achieved_energy`` is
    the one-step energy of that extension.
    """

    values: np.ndarray
    achieved_energy: float


def one_step_energy(triple: FractalTriple, form: DirichletForm, weights, v) -> float:
    """Weighted sum of the form over all cell restrictions of first-level data."""
    r = check_weights(triple, weights)
    v = _vertex_data(v, triple.num_vertices)
    return float(
        sum(r[i] * energy(form, v[np.array(cell)]) for i, cell in enumerate(triple.cells))
    )


def _extension(
    triple: FractalTriple, form: DirichletForm, weights, fixed: Sequence[int], fixed_vals
) -> ExtensionResult:
    """Energy minimizer among first-level data taking ``fixed_vals`` on the
    sorted vertex ids ``fixed``."""
    x, _ = _extend(triple, form, check_weights(triple, weights), tuple(fixed))
    values = x @ fixed_vals
    values[fixed] = fixed_vals
    values.flags.writeable = False
    return ExtensionResult(values, one_step_energy(triple, form, weights, values))


def harmonic_extension(
    triple: FractalTriple, form: DirichletForm, weights, u
) -> ExtensionResult:
    """Unique extension of boundary data minimizing the one-step energy."""
    u = _vertex_data(u, triple.N)
    return _extension(triple, form, weights, list(range(triple.N)), u)


def constrained_extension(
    triple: FractalTriple, form: DirichletForm, weights, fixed: Mapping[int, float]
) -> ExtensionResult:
    """Energy minimizer among first-level data agreeing with ``fixed``."""
    if not fixed:
        raise ValueError("the fixed-value map must be nonempty")
    fixed_ids = sorted(int(v) for v in fixed)
    for v in fixed_ids:
        if not 0 <= v < triple.num_vertices:
            raise ValueError(f"fixed vertex id {v} out of range")
    fixed_vals = np.array([float(fixed[v]) for v in fixed_ids])
    return _extension(triple, form, weights, fixed_ids, fixed_vals)


def check_reachable_bfs(triple, lap, free, fixed):
    """Raise ``SingularInteriorError`` at the first vertex of ``free`` that no
    depth-first search from the ``fixed`` vertices reaches, walking every pair
    image ``cell[a], cell[b]`` whose Laplacian entry is nonzero; rebuilt from
    scratch on every call."""
    adj = adjacency(
        triple.num_vertices,
        [
            (cell[a], cell[b])
            for cell in triple.cells
            for a, b in pair_list(triple.N)
            if lap[cell[a], cell[b]] != 0.0
        ],
    )
    seen = set(fixed)
    stack = list(fixed)
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    for v in free:
        if v not in seen:
            raise SingularInteriorError(v)


def cell_graph_pairwise(triple):
    """Edges ``{i1, i2}`` between cells that share a vertex id, by
    intersecting every pair of cells."""
    sets = [set(cell) for cell in triple.cells]
    edges = set()
    for i1 in range(len(sets)):
        for i2 in range(i1 + 1, len(sets)):
            if sets[i1] & sets[i2]:
                edges.add((i1, i2))
    return frozenset(edges)


def validate_by_sets(triple):
    """Every violated structural invariant of ``triple``, in ``validate``'s
    order and wording, checked cell by cell on Python tuples and sets."""
    v = []
    n, k, nv = triple.N, triple.k, triple.num_vertices
    if n < 2:
        v.append(f"boundary count must be at least 2 (N={n})")
    if k < n:
        v.append(f"cell count must be at least the boundary count (k={k}, N={n})")
    if nv < n:
        v.append(f"vertex count must be at least the boundary count ({nv} < {n})")
    if not v and nv > k * n:
        v.append(f"vertex count must be at most the number of cell entries ({nv} > {k * n})")
    if len(triple.cells) != k:
        v.append(f"expected {k} cell maps, found {len(triple.cells)}")
        return v

    shape_ok = not v
    for i, cell in enumerate(triple.cells):
        if len(cell) != n:
            v.append(f"cell {i} has {len(cell)} entries, expected {n}")
            shape_ok = False
            continue
        for x in cell:
            if not 0 <= x < nv:
                v.append(f"cell {i} contains out-of-range vertex id {x}")
                shape_ok = False
    if not shape_ok:
        return v

    for i, cell in enumerate(triple.cells):
        if len(set(cell)) != n:
            v.append(f"cell {i} is not injective: {list(cell)}")
    for j in range(n):
        if triple.cells[j][j] != j:
            v.append(
                f"fixed-point condition at j={j}: cells[{j}][{j}] == {triple.cells[j][j]}"
            )
        for i in range(k):
            if i != j and j in triple.cells[i]:
                v.append(
                    f"boundary vertex {j} appears in cell {i}; it may only appear in cell {j}"
                )
    covered = {x for cell in triple.cells for x in cell}
    for x in range(nv):
        if x not in covered:
            v.append(f"vertex id {x} does not occur in any cell")

    if len(split_components(range(k), adjacency(k, cell_graph_pairwise(triple)))) > 1:
        v.append("cell graph disconnected")
    return v


def connected_within(vertices, adj):
    """True when every two members of ``vertices`` are joined by a path
    staying inside ``vertices``, by one breadth-first search from an
    arbitrary member.  Sets of size 0 or 1 count as connected."""
    vs = set(vertices)
    if len(vs) <= 1:
        return True
    start = next(iter(vs))
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y in vs and y not in seen:
                seen.add(y)
                queue.append(y)
    return seen == vs


def connectivity_flags_dfs(triple):
    """``(a_connected, o_connected)`` with one depth-first search over the
    cell graph per removed boundary cell, started at the first surviving
    boundary cell and kept off the removed one."""
    n, k = triple.N, triple.k
    adj = adjacency(k, cell_graph_pairwise(triple))
    a_conn = True
    for j in range(n):
        allowed = set(range(k)) - {j}
        targets = [i for i in range(n) if i != j]
        if len(targets) > 1:
            seen = {targets[0]}
            stack = [targets[0]]
            while stack:
                for y in adj[stack.pop()]:
                    if y in allowed and y not in seen:
                        seen.add(y)
                        stack.append(y)
            if not all(t in seen for t in targets[1:]):
                a_conn = False
                break
    sets = [set(cell) for cell in triple.cells]
    disjoint = all(not (sets[a] & sets[b]) for a in range(n) for b in range(a + 1, n))
    inner = set(range(n, k))
    return a_conn, disjoint and bool(inner) and connected_within(inner, adj)


def two_level_form(triple, form, weights):
    """Reduce the full two-level network onto the boundary in one shot.

    The two-level vertex set is a tree of cell copies: one copy of the
    first-level vertex set per cell, with copy boundaries glued onto the
    first-level vertices of the host cell.  Edge weights multiply along the
    two levels.
    """
    n, k, nv = triple.N, triple.k, triple.num_vertices
    fresh = {}

    def node(i1, w):
        if w < n:
            return triple.cells[i1][w]
        key = (i1, w)
        if key not in fresh:
            fresh[key] = nv + len(fresh)
        return fresh[key]

    m = form.matrix()
    edges = {}
    for i1 in range(k):
        for i2 in range(k):
            for a, b in pair_list(n):
                c = m[a, b]
                if c <= 0.0:
                    continue
                p, q = node(i1, triple.cells[i2][a]), node(i1, triple.cells[i2][b])
                key = (min(p, q), max(p, q))
                edges[key] = edges.get(key, 0.0) + weights[i1] * weights[i2] * c
    total = nv + len(fresh)
    lap = np.zeros((total, total))
    for (p, q), w in edges.items():
        lap[p, p] += w
        lap[q, q] += w
        lap[p, q] -= w
        lap[q, p] -= w
    bnd = list(range(n))
    inner = list(range(n, total))
    schur = lap[np.ix_(bnd, bnd)] - lap[np.ix_(bnd, inner)] @ np.linalg.solve(
        lap[np.ix_(inner, inner)], lap[np.ix_(inner, bnd)]
    )
    return DirichletForm(n, {(a, b): max(-schur[a, b], 0.0) for a, b in pair_list(n)})


def lift_edges_loop(triple, boundary_edges, cell_indices=None):
    """Copy of every boundary edge in the chosen cells (all cells by
    default), cell by cell and edge by edge, as sorted vertex pairs."""
    cells = range(triple.k) if cell_indices is None else cell_indices
    pairs = list(boundary_edges)
    lifted = set()
    for i in cells:
        cell = triple.cells[i]
        for a, b in pairs:
            lifted.add((min(cell[a], cell[b]), max(cell[a], cell[b])))
    return frozenset(lifted)


def _interior_reach(triple, adj, start):
    """All vertices reachable from ``start`` by paths whose intermediate
    vertices are interior.  Boundary vertices are recorded when hit but never
    walked through; the start itself is expanded."""
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y in seen:
                continue
            seen.add(y)
            if y >= triple.N:
                queue.append(y)
    seen.discard(start)
    return seen


def lambda_graph_bfs(triple, g):
    """Propagation operator by one interior-path search per boundary id over
    the lift of ``g`` through every cell."""
    adj = adjacency(triple.num_vertices, lift_edges_loop(triple, g.edges))
    edges = set()
    for j in range(triple.N):
        for t in _interior_reach(triple, adj, j):
            if t < triple.N and t != j:
                edges.add((min(j, t), max(j, t)))
    return BoundaryGraph(triple.N, frozenset(edges))


def single_images_bfs(triple, j, hat):
    """Cell-``j`` image of every boundary id ``j' != j``: the ids ``h != j``
    whose copy ``cells[j][h]`` an interior-path search from ``j'`` over the
    lift of ``hat`` reaches."""
    adj = adjacency(triple.num_vertices, lift_edges_loop(triple, hat.edges))
    cell = triple.cells[j]
    out = {}
    for jp in range(triple.N):
        if jp != j:
            reach = _interior_reach(triple, adj, jp)
            out[jp] = frozenset(h for h in range(triple.N) if h != j and cell[h] in reach)
    return out


def l_j_image(triple: FractalTriple, j: int, vertices: Iterable[int], n: int = 1) -> frozenset[int]:
    """n-fold image of a boundary vertex set under the cell-``j`` image map."""
    if not 0 <= j < triple.N:
        raise ValueError(f"j={j} is not a boundary id")
    if n < 0:
        raise ValueError("n must be nonnegative")
    current = frozenset(int(x) for x in vertices)
    for x in current:
        if not 0 <= x < triple.N or x == j:
            raise ValueError(f"vertex {x} is not a boundary id distinct from j={j}")
    if n == 0 or not current:
        return current
    singles = _single_images(triple, j, hat_graph(triple))
    for _ in range(n):
        current = frozenset(x for p in current for x in singles[p])
    return current


def orbit_span_rounds(triple, cache, seed, rank_tol=1e-10):
    """Orbit span closed in rounds: each round pushes every basis vector
    through every cell operator, one operator and one vector at a time, and
    Gram-Schmidt adjoins any image with a residual above the rank threshold;
    rounds repeat until one adjoins nothing."""
    seed = np.asarray(seed, dtype=float)
    norm = np.linalg.norm(seed)
    basis = [seed / norm]
    scale = max(1.0, norm)
    changed = True
    while changed and len(basis) < triple.N:
        changed = False
        for b in list(basis):
            for i in range(triple.k):
                w = cache.ops[i] @ b
                resid = w - sum((w @ e) * e for e in basis)
                if np.linalg.norm(resid) > rank_tol * max(scale, np.linalg.norm(w)):
                    basis.append(resid / np.linalg.norm(resid))
                    changed = True
                    if len(basis) == triple.N:
                        break
            if len(basis) == triple.N:
                break
    return np.array(basis)


def _perron_pair(matrix):
    """Dominant eigenpair of an entrywise positive matrix by power iteration
    on the vector alone, the vector at unit length; the dense eigensolver
    takes over after ``spectral._POWER_MAX_ITER`` steps."""
    n = matrix.shape[0]
    x = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(spectral._POWER_MAX_ITER):
        y = matrix @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            raise InternalConsistencyError("positive operator annihilated a positive vector")
        y /= norm
        if np.max(np.abs(y - x)) < spectral.POWER_TOL:
            x = y
            break
        x = y
    else:
        return spectral._perron_dense(matrix)
    return x, float(x @ (matrix @ x))


def _perron_on(matrix, idx, where):
    """Perron pair of the block of ``matrix`` on ``idx``, sup-normalized on ``idx``."""
    block = matrix[np.ix_(idx, idx)]
    if block.min() <= 0.0:
        raise InternalConsistencyError(f"{where} is not entrywise positive")
    small, value = _perron_pair(block)
    small = small / np.max(np.abs(small))
    if small.min() <= 1e-12:
        raise InternalConsistencyError(f"Perron vector is not strictly positive: {small}")
    vec = np.zeros(matrix.shape[0])
    vec[idx] = small
    return vec, value


def perron_positive_by_vertex(cache, j):
    """``perron_positive`` for the one vertex ``j``, by its own power
    iteration on a freshly cut block."""
    if not _support_mask(cache.form).all():
        raise ValueError("perron_positive requires a positive form")
    others = [p for p in range(cache.triple.N) if p != j]
    return _perron_on(cache.ops[j], others, f"restricted cell operator at j={j}")


def perron_component_by_node(cache, comp, s):
    """``perron_component`` for the one node ``(comp, s)``, its operator
    power built and cut for it alone."""
    j, n = comp.j, cache.triple.N
    period = comp.periods[s]
    power = cache.word((j,) * period)
    where = f"component-restricted operator at (j={j}, s={s})"
    u_bar, value = _perron_on(power, list(comp.c_prime[s]), where)
    u_tilde = power @ u_bar
    inside = np.zeros(n, dtype=bool)
    inside[list(comp.components[s])] = True
    stray = np.max(np.abs(u_tilde[~inside]), initial=0.0)
    if stray > 1e-10 * np.max(np.abs(u_tilde)):
        raise InternalConsistencyError(
            f"iterate at (j={j}, s={s}) leaks outside its component by {stray}"
        )
    u_tilde[~inside] = 0.0
    if u_tilde[inside].min() <= 0.0:
        raise InternalConsistencyError(
            f"iterate at (j={j}, s={s}) is not positive on its component"
        )
    return PerronData(j=j, s=s, period=period, u_bar=u_bar, u_tilde=u_tilde, eigenvalue=value)


def project_g(u, comp: ComponentData, s: int) -> np.ndarray:
    """Shift by the value at the pivot vertex, then mask to component ``s``."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    idx = list(comp.components[s])
    out[idx] = u[idx] - u[comp.j]
    return out


def project_g_tilde(u, comp: ComponentData, s: int) -> np.ndarray:
    """Mask to the surviving part of component ``s``."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    idx = list(comp.c_prime[s])
    out[idx] = u[idx]
    return out


def pi_limit(cache: OperatorCache, pdata: PerronData, u) -> float:
    """Limiting coefficient of data along the component eigenvector.

    The period-th operator power divided by its eigenvalue, applied over and
    over, carries data on the component ``C`` (the support of ``u_tilde``)
    towards a multiple of ``u_tilde``; the multiple is ``l @ u[C]``, with
    ``l`` the left Perron vector of the power restricted to ``C``, scaled so
    that ``l @ u_tilde[C] == 1``.  It solves the bordered system
    ``[P_CC^T - lambda I ; u_tilde[C]^T] l = [0 ; 1]`` by least squares.
    The input must be supported on the component.
    """
    u = np.asarray(u, dtype=float)
    inside = pdata.u_tilde > 0.0
    stray = np.max(np.abs(u[~inside]), initial=0.0)
    if stray > 1e-9 * max(np.max(np.abs(u)), 1e-300):
        raise ValueError("data must be supported on the component")
    block = cache.power(pdata.j, pdata.period)[np.ix_(inside, inside)]
    tilde = pdata.u_tilde[inside]
    m = tilde.size
    bordered = np.vstack([block.T - pdata.eigenvalue * np.eye(m), tilde])
    left = np.linalg.lstsq(bordered, np.append(np.zeros(m), 1.0))[0]
    return float(left @ u[inside])


def pi_limit_by_iteration(cache, pdata, u, tol=1e-12, max_iter=500):
    """Limiting coefficient of component data along ``pdata.u_tilde`` by
    iteration: apply the period-th operator power divided by its eigenvalue
    until the iterate lies along ``u_tilde`` to within ``tol`` and its
    coefficient against it stops moving; ``None`` after ``max_iter`` steps."""
    power = cache.word((pdata.j,) * pdata.period)
    tilde = pdata.u_tilde
    denom = float(tilde @ tilde)
    w = np.asarray(u, dtype=float)
    scale = max(float(np.max(np.abs(w))), 1e-300)
    prev = None
    for _ in range(max_iter):
        w = (power @ w) / pdata.eigenvalue
        coeff = float(w @ tilde) / denom
        resid = float(np.max(np.abs(w - coeff * tilde)))
        close = resid <= tol * max(abs(coeff) * np.max(tilde), scale)
        if prev is not None and close and abs(coeff - prev) <= tol * max(1.0, abs(coeff)):
            return coeff
        prev = coeff
    return None


def is_harmonic_at(form: DirichletForm, u, j: int) -> bool:
    """Whether the weighted difference operator vanishes at vertex ``j``.

    The comparison is relative: the threshold is 1e-9 times the largest
    coefficient times the oscillation of ``u``, so the answer is invariant
    under rescaling either the form or the data.  Zero scale counts as
    harmonic.
    """
    u = _vertex_data(u, form.N)
    scale = form.max_coefficient() * (u.max() - u.min())
    value = laplacian(form, u)[j]
    return bool(abs(value) <= 1e-9 * scale)


def harmonicity_functional(
    form: DirichletForm, comp: ComponentData, s: int, u
) -> float:
    """Weighted difference operator at the pivot vertex of the shifted,
    component-masked data."""
    return float(laplacian(form, project_g(u, comp, s))[comp.j])


def pair_energy(table: Mapping[tuple[int, int], float], u) -> float:
    """Evaluate a pair-difference coefficient table on boundary data."""
    u = np.asarray(u, dtype=float)
    return float(sum(d * (u[a] - u[b]) ** 2 for (a, b), d in table.items()))


def all_words(k, max_len):
    """Every cell-index word of length 0..max_len."""
    for length in range(max_len + 1):
        yield from itertools.product(range(k), repeat=length)


def digraph_by_word_enumeration(triple, form, weights, comp_by_j, payload, phi_tol=1e-8):
    """Stability edges found by checking every word up to length N-1."""
    cache = OperatorCache(triple, form, weights)
    nodes = sorted(payload)
    max_coeff = form.max_coefficient()
    edges = set()
    for src in nodes:
        seed = payload[src].u_tilde
        vectors = [cache.word(word) @ seed for word in all_words(triple.k, triple.N - 1)]
        for dst in nodes:
            jd, sd = dst
            for vec in vectors:
                sup = float(np.max(np.abs(vec)))
                if sup == 0.0:
                    continue
                value = abs(harmonicity_functional(form, comp_by_j[jd], sd, vec))
                if value / (max_coeff * sup) > phi_tol:
                    edges.add((src, dst))
                    break
    return edges


def magnitudes_by_span(span, rows, max_coeff):
    """Per row, the largest ``|row @ b| / (max_coeff * sup|b|)`` over the
    basis vectors ``b`` of one span; vectors with zero sup norm are skipped."""
    sup = np.max(np.abs(span), axis=1)
    keep = sup != 0.0
    values = np.abs(rows @ span[keep].T) / (max_coeff * sup[keep])
    return values.max(axis=1, initial=0.0)


def _node_rows(dg):
    lap = dg.cache.form.matrix() - np.diag(dg.cache.form.matrix().sum(axis=1))
    return np.array([_node_row(lap[j], dg.component_data[j], s) for (j, s) in dg.nodes])


def digraph_readout_by_span(dg):
    """Magnitudes, edges and warnings of the digraph ``dg``, read off its
    spans one source at a time through ``magnitudes_by_span``."""
    rows = _node_rows(dg)
    magnitudes, edges, warnings = {}, set(), []
    for src, span in dg.spans.items():
        mags = magnitudes_by_span(span, rows, dg.cache.form.max_coefficient())
        for dst, mag in zip(dg.nodes, mags.tolist()):
            magnitudes[(src, dst)] = mag
            if mag > uniqueness.PHI_TOL:
                edges.add((src, dst))
                if mag <= uniqueness.PHI_WARN_FACTOR * uniqueness.PHI_TOL:
                    warnings.append(
                        f"borderline functional magnitude {mag:.3e} on edge {src}->{dst}"
                    )
    return magnitudes, edges, warnings


def positive_case_edges_by_span(cache):
    """The positive-form cross-check's edges, one source span at a time:
    Perron vectors as seeds, the difference operator as functional."""
    nodes = range(cache.triple.N)
    form = cache.form
    rows = form.matrix() - np.diag(form.matrix().sum(axis=1))
    seeds = [u_bar for u_bar, _ in spectral.perron_positive(cache, nodes)]
    edges = set()
    for j, span in zip(nodes, orbit_span(cache, seeds)):
        mags = magnitudes_by_span(span, rows, form.max_coefficient())
        edges |= {((j, 0), (jd, 0)) for jd in nodes if mags[jd] > uniqueness.PHI_TOL}
    return edges


def round_verdict(triple, form, dg):
    """Edges, sinks and witnesses from ``orbit_span_rounds`` spans, one seed
    at a time, read through ``magnitudes_by_span`` against ``PHI_TOL``."""
    rows = _node_rows(dg)
    edges = set()
    for src in dg.nodes:
        span = orbit_span_rounds(triple, dg.cache, dg.payload[src].u_tilde)
        mags = magnitudes_by_span(span, rows, form.max_coefficient())
        edges |= {(src, dst) for dst, mag in zip(dg.nodes, mags) if mag > uniqueness.PHI_TOL}
    sinks = _sink_sccs(dg.nodes, edges)
    return edges, sinks, (sinks[0], sinks[1]) if len(sinks) > 1 else None


def closed_subsets(nodes, edges):
    """All nonempty node sets with no outgoing edge, by exhaustion."""
    nodes = list(nodes)
    out = []
    for bits in range(1, 2 ** len(nodes)):
        subset = frozenset(n for i, n in enumerate(nodes) if bits >> i & 1)
        if all(dst in subset for (src, dst) in edges if src in subset):
            out.append(subset)
    return out


def has_two_disjoint_closed_subsets(nodes, edges):
    subsets = closed_subsets(nodes, edges)
    return any(
        not (a & b) for a, b in itertools.combinations(subsets, 2)
    )


def random_drawn_triples(seed, n_max=4, k_max=5):
    """Endless stream of seeded triples, each with its cell weights, valid
    or not.

    A draw takes N from 2 to ``n_max``, k from N to ``k_max`` and the vertex
    count from N + 1 to N + k(N - 1).  Cell j holds j in slot j and N - 1
    distinct random interior ids in the others; every other cell holds N
    distinct random interior ids.  Each weight is 10^U(-1, 1).  Draws whose
    interior is too small for their cells are skipped.
    """
    rng = random.Random(seed)
    while True:
        n = rng.randint(2, n_max)
        k = rng.randint(n, k_max)
        nv = rng.randint(n + 1, n + k * (n - 1))
        interior = range(n, nv)
        if len(interior) < (n if k > n else n - 1):
            continue
        cells = []
        for i in range(k):
            ids = rng.sample(interior, n - 1 if i < n else n)
            if i < n:
                ids.insert(i, i)
            cells.append(tuple(ids))
        weights = [10 ** rng.uniform(-1, 1) for _ in range(k)]
        yield FractalTriple(name="drawn", N=n, k=k, num_vertices=nv, cells=tuple(cells)), weights


def random_valid_triples(seed, n_max=4, k_max=5):
    """The draws of ``random_drawn_triples`` that ``validate`` accepts
    (about 37 % at the defaults)."""
    for triple, weights in random_drawn_triples(seed, n_max, k_max):
        if not validate(triple):
            yield triple, weights
