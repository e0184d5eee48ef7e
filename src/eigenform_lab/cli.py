"""Command-line surface tying the pipeline together.

Subcommands: ``validate``, ``graphs``, ``solve``, ``verify``,
``check-uniqueness``, ``report`` and ``corpus``.  Output is machine-readable
JSON by default (``--format text`` for a plain rendering) and is deterministic
for identical inputs.  Exit codes: 0 success, 1 invalid input, 2 numerical
failure (singular system or non-convergence), 3 internal-consistency failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InternalConsistencyError, NonConvergenceError, SingularInteriorError
from .fractal import FractalTriple, builtin, builtin_names, validate
from .graphs import components, hat_graph, tilde_graph
from .jsonio import dumps, form_to_dict, load_form, load_fractal, triple_to_dict
from .solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_SOLVE_TOL,
    DEFAULT_VERIFY_TOL,
    EigenResult,
    find_eigenform,
    verify_eigenform,
)
from .uniqueness import StabilityVerdict, decide_uniqueness, stability_digraph

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_INCONSISTENT = 3


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="tolerance override")
    common.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--quiet", action="store_true", help="suppress warnings on stderr")

    parser = argparse.ArgumentParser(
        prog="eigenform-lab",
        description="Renormalization of boundary Dirichlet forms: eigenform "
        "search, verification and uniqueness certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a fractal file")
    p.add_argument("fractal")

    p = sub.add_parser("graphs", parents=[common], help="stable graph and component data")
    p.add_argument("fractal")

    p = sub.add_parser("solve", parents=[common], help="search for an eigenform")
    p.add_argument("fractal")
    p.add_argument("--init", help="form file to start the iteration from")

    p = sub.add_parser("verify", parents=[common], help="verify a candidate eigenform")
    p.add_argument("fractal")
    p.add_argument("form")

    p = sub.add_parser("check-uniqueness", parents=[common], help="uniqueness verdict")
    p.add_argument("fractal")
    p.add_argument("form", nargs="?", help="verified eigenform (solved for when absent)")

    p = sub.add_parser("report", parents=[common], help="full pipeline in one document")
    p.add_argument("fractal")

    sub.add_parser("corpus", parents=[common], help="list the built-in fractals")
    return parser


def _load_triple(path: str):
    """A path to a fractal file, or the bare name of a built-in."""
    if not os.path.exists(path) and path in builtin_names():
        triple = builtin(path)
        import numpy as np

        return triple, np.ones(triple.k)
    return load_fractal(path)


def _eigenresult_dict(res: EigenResult) -> dict:
    return {
        "converged": res.converged,
        "rho": res.rho,
        "residual": res.residual,
        "iterations": res.iterations,
        "checks": {k: bool(v) for k, v in res.checks.items()},
        "form": form_to_dict(res.form),
    }


def _graphs_dict(triple: FractalTriple) -> dict:
    hat = hat_graph(triple)
    comp_rows = []
    for j in range(triple.N):
        comp = components(triple, j, hat)
        comp_rows.append(
            {
                "j": j,
                "components": [list(c) for c in comp.components],
                "beta": list(comp.beta),
                "periods": list(comp.periods),
                "c_prime": [list(c) for c in comp.c_prime],
                "c_second": [list(c) for c in comp.c_second],
            }
        )
    return {
        "N": triple.N,
        "tilde_graph": [list(e) for e in tilde_graph(triple).sorted_edges()],
        "hat_graph": [list(e) for e in hat.sorted_edges()],
        "components": comp_rows,
    }


def _verdict_dict(verdict: StabilityVerdict, rho: float, digraph) -> dict:
    out = {
        "unique": verdict.unique,
        "rho": rho,
        "sink_sccs": [[list(node) for node in scc] for scc in verdict.sink_sccs],
    }
    if verdict.witnesses is not None:
        out["witnesses"] = [[list(node) for node in w] for w in verdict.witnesses]
    out["digraph"] = {
        "nodes": [list(node) for node in digraph.nodes],
        "edges": [[list(a), list(b)] for a, b in sorted(digraph.edges)],
    }
    return out


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return dumps(doc)
    return "\n".join(_text_lines(doc, ""))


def _text_lines(value, prefix: str):
    if isinstance(value, dict):
        lines = []
        for key, item in value.items():
            if isinstance(item, (dict, list)):
                lines.append(f"{prefix}{key}:")
                lines.extend(_text_lines(item, prefix + "  "))
            else:
                lines.append(f"{prefix}{key}: {item}")
        return lines
    if isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            return [f"{prefix}{value}"]
        lines = []
        for item in value:
            lines.extend(_text_lines(item, prefix + "  "))
        return lines
    return [f"{prefix}{value}"]


def _solve(triple, weights, args) -> EigenResult:
    init = load_form(args.init) if getattr(args, "init", None) else None
    tol = args.tol if args.tol is not None else DEFAULT_SOLVE_TOL
    return find_eigenform(triple, weights, init=init, tol=tol, max_iter=args.max_iter)


def _cmd_validate(args) -> int:
    triple, _ = _load_triple(args.fractal)
    violations = validate(triple)
    doc = {"name": triple.name, "valid": not violations, "violations": violations}
    print(_render(doc, args.format))
    return EXIT_OK if not violations else EXIT_INVALID_INPUT


def _cmd_graphs(args) -> int:
    triple, _ = _load_triple(args.fractal)
    violations = validate(triple)
    if violations:
        print(_render({"valid": False, "violations": violations}, args.format))
        return EXIT_INVALID_INPUT
    doc = {"name": triple.name}
    doc.update(_graphs_dict(triple))
    print(_render(doc, args.format))
    return EXIT_OK


def _cmd_solve(args) -> int:
    triple, weights = _load_triple(args.fractal)
    violations = validate(triple)
    if violations:
        print(_render({"valid": False, "violations": violations}, args.format))
        return EXIT_INVALID_INPUT
    res = _solve(triple, weights, args)
    print(_render(_eigenresult_dict(res), args.format))
    return EXIT_OK if res.converged else EXIT_NUMERICAL


def _cmd_verify(args) -> int:
    triple, weights = _load_triple(args.fractal)
    violations = validate(triple)
    if violations:
        print(_render({"valid": False, "violations": violations}, args.format))
        return EXIT_INVALID_INPUT
    form = load_form(args.form)
    tol = args.tol if args.tol is not None else DEFAULT_VERIFY_TOL
    res = verify_eigenform(triple, weights, form, tol=tol)
    print(_render(_eigenresult_dict(res), args.format))
    return EXIT_OK


def _cmd_check_uniqueness(args) -> int:
    triple, weights = _load_triple(args.fractal)
    violations = validate(triple)
    if violations:
        print(_render({"valid": False, "violations": violations}, args.format))
        return EXIT_INVALID_INPUT
    tol = args.tol if args.tol is not None else DEFAULT_VERIFY_TOL
    if args.form:
        form = load_form(args.form)
        ver = verify_eigenform(triple, weights, form, tol=tol)
        if not ver.converged:
            print(
                _render(
                    {"error": "supplied form is not a verified eigenform", "verify": _eigenresult_dict(ver)},
                    args.format,
                )
            )
            return EXIT_INVALID_INPUT
    else:
        solved = _solve(triple, weights, args)
        if not solved.converged:
            print(
                _render(
                    {"error": "eigenform search did not converge", "solve": _eigenresult_dict(solved)},
                    args.format,
                )
            )
            return EXIT_NUMERICAL
        form = solved.form
        ver = verify_eigenform(triple, weights, form, tol=tol)
    dg = stability_digraph(triple, form, weights)
    if dg.warnings and not args.quiet:
        for line in dg.warnings:
            print(f"warning: {line}", file=sys.stderr)
    verdict = decide_uniqueness(triple, form, weights, digraph=dg)
    print(_render(_verdict_dict(verdict, ver.rho, dg), args.format))
    return EXIT_OK


def _cmd_report(args) -> int:
    triple, weights = _load_triple(args.fractal)
    violations = validate(triple)
    doc: dict = {
        "name": triple.name,
        "validation": {"valid": not violations, "violations": violations},
    }
    if violations:
        print(_render(doc, args.format))
        return EXIT_INVALID_INPUT
    doc["graphs"] = _graphs_dict(triple)
    solved = _solve(triple, weights, args)
    doc["solve"] = _eigenresult_dict(solved)
    if not solved.converged:
        print(_render(doc, args.format))
        return EXIT_NUMERICAL
    dg = stability_digraph(triple, solved.form, weights)
    if dg.warnings and not args.quiet:
        for line in dg.warnings:
            print(f"warning: {line}", file=sys.stderr)
    verdict = decide_uniqueness(triple, solved.form, weights, digraph=dg)
    doc["uniqueness"] = _verdict_dict(verdict, solved.rho, dg)
    doc["perron"] = [
        {
            "j": node[0],
            "s": node[1],
            "period": dg.payload[node].period,
            "eigenvalue": dg.payload[node].eigenvalue,
            "u_bar": list(dg.payload[node].u_bar),
            "u_tilde": list(dg.payload[node].u_tilde),
        }
        for node in dg.nodes
    ]
    print(_render(doc, args.format))
    return EXIT_OK


def _cmd_corpus(args) -> int:
    doc = {
        "builtins": [triple_to_dict(builtin(name)) for name in builtin_names()]
    }
    print(_render(doc, args.format))
    return EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "graphs": _cmd_graphs,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "check-uniqueness": _cmd_check_uniqueness,
    "report": _cmd_report,
    "corpus": _cmd_corpus,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.tol is not None and args.tol <= 0:
        print("error: --tol must be positive", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        return _HANDLERS[args.command](args)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (SingularInteriorError, NonConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
