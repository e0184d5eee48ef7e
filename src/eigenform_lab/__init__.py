"""Renormalization of Dirichlet forms on finitely ramified fractal boundary data.

The package represents fractal boundary structures combinatorially, computes
the renormalization map on boundary Dirichlet forms, searches for and verifies
eigenforms, and decides whether a verified eigenform is unique up to scale,
producing checkable witnesses either way.
"""

from .errors import EigenformLabError, InternalConsistencyError, SingularInteriorError
from .forms import (
    COEFF_EPS,
    DirichletForm,
    energy,
    is_irreducible,
    laplacian,
    pair_list,
    support_graph,
)
from .fractal import (
    FractalTriple,
    builtin,
    builtin_names,
    check_weights,
    uniform_weights,
    validate,
)
from .graphs import (
    BoundaryGraph,
    ComponentData,
    complete_graph,
    components,
    hat_graph,
    lambda_graph,
    tilde_graph,
)
from .renorm import OperatorCache, renormalize
from .solver import EigenResult, find_eigenform, verify_eigenform
from .spectral import PerronData, perron_component, perron_positive
from .uniqueness import (
    ExplorationOutcome,
    StabilityDigraph,
    StabilityVerdict,
    decide_uniqueness,
    explore_nonuniqueness,
    orbit_span,
    penalty_form,
    stability_digraph,
)

__version__ = "0.1.0"
