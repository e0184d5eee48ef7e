"""One pipeline, as ``eigenform-lab report`` runs it, and the correctness gate.

A pipeline takes a triple and its weights to a verified eigenform, its
eigenvalue and a uniqueness verdict with witnesses.  The gate compares that
outcome with closed forms: the timed run and the traced run both use it, and
the CLI workload feeds it the parsed ``report`` document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from eigenform_lab import fractal, graphs, solver, uniqueness

RHO_REL_TOL = 1e-9
EXIT_OK = 0
EXIT_NUMERICAL = 2


@dataclass(frozen=True)
class Expected:
    """Closed-form answer; ``rho`` is None where no eigenform exists."""

    rho: float | None
    unique: bool | None


@dataclass(frozen=True)
class Outcome:
    converged: bool
    rho: float
    unique: bool | None = None
    witnesses: tuple | None = None
    edges: frozenset = frozenset()


def run_pipeline(triple, weights, init=None) -> Outcome:
    """validate, hat_graph, components, find_eigenform, verify_eigenform,
    stability_digraph, decide_uniqueness, and explore_nonuniqueness when the
    verdict is non-unique.  Calls go through the module attributes so that
    wrapped functions are seen."""
    violations = fractal.validate(triple)
    if violations:
        raise ValueError(f"{triple.name} is not a valid triple: {violations[0]}")
    hat = graphs.hat_graph(triple)
    for j in range(triple.N):
        graphs.components(triple, j, hat)
    solved = solver.find_eigenform(triple, weights, init=init)
    if not solved.converged:
        return Outcome(converged=False, rho=solved.rho)
    verified = solver.verify_eigenform(triple, weights, solved.form)
    dg = uniqueness.stability_digraph(triple, solved.form, weights)
    verdict = uniqueness.decide_uniqueness(triple, solved.form, weights, digraph=dg)
    if not verdict.unique:
        uniqueness.explore_nonuniqueness(triple, solved.form, weights, verdict)
    return Outcome(
        converged=verified.converged,
        rho=solved.rho,
        unique=verdict.unique,
        witnesses=verdict.witnesses,
        edges=frozenset(dg.edges),
    )


def outcome_from_report(returncode: int, stdout: str, expected: Expected) -> Outcome:
    """Read a ``report`` run; a wrong exit code or unparsable JSON raises."""
    want = EXIT_OK if expected.rho is not None else EXIT_NUMERICAL
    if returncode != want:
        raise ValueError(f"exit code {returncode}, expected {want}")
    doc = json.loads(stdout)
    solve = doc["solve"]
    if "uniqueness" not in doc:
        return Outcome(converged=solve["converged"], rho=solve["rho"])

    verdict = doc["uniqueness"]
    witnesses = verdict.get("witnesses")
    return Outcome(
        converged=solve["converged"],
        rho=solve["rho"],
        unique=verdict["unique"],
        witnesses=None if witnesses is None else tuple([tuple(x) for x in w] for w in witnesses),
        edges=frozenset((tuple(a), tuple(b)) for a, b in verdict["digraph"]["edges"]),
    )


def check(outcome: Outcome, expected: Expected) -> tuple[str | None, float | None]:
    """Return the reason the outcome is wrong (None when it passes) and the
    relative eigenvalue error, when one was measured."""
    if expected.rho is None:
        return ("converged where no eigenform exists" if outcome.converged else None), None
    if not outcome.converged:
        return "no verified eigenform where one exists", None
    err = abs(outcome.rho - expected.rho) / expected.rho
    if not err <= RHO_REL_TOL:
        return f"rho {outcome.rho!r} is off {expected.rho!r} by {err:.3e}", err
    if outcome.unique != expected.unique:
        return f"verdict unique={outcome.unique}, expected {expected.unique}", err
    return _witness_problem(outcome), err


def _witness_problem(outcome: Outcome) -> str | None:
    if outcome.unique:
        return None if outcome.witnesses is None else "unique verdict carries witnesses"
    if outcome.witnesses is None or len(outcome.witnesses) != 2:
        return "non-unique verdict without two witness sets"
    first, second = (set(w) for w in outcome.witnesses)
    if not first or not second or first & second:
        return "witness sets are empty or not disjoint"
    for witness in (first, second):
        for src, dst in outcome.edges:
            if src in witness and dst not in witness:
                return f"witness set is not closed: edge {src}->{dst} leaves it"
    return None
