"""Renormalization of Dirichlet forms on finitely ramified fractal boundary data.

The package represents fractal boundary structures combinatorially, computes
the renormalization map on boundary Dirichlet forms, searches for and verifies
eigenforms, and decides whether a verified eigenform is unique up to scale,
producing checkable witnesses either way.
"""

from .errors import (
    EigenformLabError,
    InternalConsistencyError,
    NonConvergenceError,
    SingularInteriorError,
)
from .forms import (
    COEFF_EPS,
    DirichletForm,
    energy,
    is_harmonic_at,
    is_irreducible,
    laplacian,
    pair_list,
    support_graph,
)
from .fractal import (
    ConnectivityFlags,
    FractalTriple,
    builtin,
    builtin_names,
    cell_graph,
    check_weights,
    connectivity_flags,
    uniform_weights,
    validate,
)
from .graphs import (
    BoundaryGraph,
    ComponentData,
    complete_graph,
    components,
    hat_graph,
    l_j_image,
    lambda_graph,
    lift_edges,
    tilde_graph,
)
from .renorm import (
    ExtensionResult,
    OperatorCache,
    constrained_extension,
    harmonic_extension,
    one_step_energy,
    renormalize,
)
from .solver import EigenResult, find_eigenform, verify_eigenform
from .spectral import (
    PerronData,
    perron_component,
    perron_positive,
    pi_limit,
    project_g,
    project_g_tilde,
)
from .uniqueness import (
    ExplorationOutcome,
    StabilityDigraph,
    StabilityVerdict,
    decide_uniqueness,
    explore_nonuniqueness,
    harmonicity_functional,
    orbit_span,
    pair_energy,
    penalty_form,
    stability_digraph,
)

__version__ = "0.1.0"
