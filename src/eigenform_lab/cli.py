"""Command-line surface tying the pipeline together.

Subcommands: ``validate``, ``graphs``, ``solve``, ``verify``,
``check-uniqueness``, ``report`` and ``corpus``.  Output is machine-readable
JSON by default (``--format text`` for a plain rendering) and is deterministic
for identical inputs.  Exit codes: 0 success, 1 invalid input or usage, 2
numerical failure (singular system or non-convergence), 3 internal-consistency
failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import fields

from .errors import InternalConsistencyError, SingularInteriorError
from .fractal import FractalTriple, builtin, builtin_names, uniform_weights, validate
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it;
    parsing leaves it unchanged."""
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
        return triple, uniform_weights(triple)
    return load_fractal(path)


def _eigenresult_dict(res: EigenResult) -> dict:
    return {
        "converged": res.converged,
        "rho": res.rho,
        "residual": res.residual,
        "iterations": res.iterations,
        "checks": res.checks,
        "form": form_to_dict(res.form),
    }


def _graphs_dict(triple: FractalTriple) -> dict:
    hat = hat_graph(triple)
    rows = (components(triple, j, hat) for j in range(triple.N))
    return {
        "N": triple.N,
        "tilde_graph": tilde_graph(triple).sorted_edges(),
        "hat_graph": hat.sorted_edges(),
        "components": [{f.name: getattr(row, f.name) for f in fields(row)} for row in rows],
    }


def _verdict_dict(verdict: StabilityVerdict, rho: float) -> dict:
    out = {"unique": verdict.unique, "rho": rho, "sink_sccs": verdict.sink_sccs}
    if verdict.witnesses is not None:
        out["witnesses"] = verdict.witnesses
    out["digraph"] = {"nodes": verdict.digraph.nodes, "edges": sorted(verdict.digraph.edges)}
    return out


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return dumps(doc)
    return "\n".join(_text_lines(doc, ""))


def _text_lines(value, prefix: str):
    if isinstance(value, dict):
        lines = []
        for key, item in value.items():
            if isinstance(item, (dict, list, tuple)):
                lines.append(f"{prefix}{key}:")
                lines.extend(_text_lines(item, prefix + "  "))
            else:
                lines.append(f"{prefix}{key}: {item}")
        return lines
    if isinstance(value, (list, tuple)):
        if all(not isinstance(x, (dict, list, tuple)) for x in value):
            return [f"{prefix}{list(value)}"]
        lines = []
        for item in value:
            lines.extend(_text_lines(item, prefix + "  "))
        return lines
    return [f"{prefix}{value}"]


def _print(doc: dict, args, code: int = EXIT_OK) -> int:
    print(_render(doc, args.format))
    return code


def _solve(triple, weights, args) -> EigenResult:
    init = load_form(args.init) if getattr(args, "init", None) else None
    tol = args.tol if args.tol is not None else DEFAULT_SOLVE_TOL
    return find_eigenform(triple, weights, init=init, tol=tol, max_iter=args.max_iter)


def _uniqueness(triple, weights, form, args) -> StabilityVerdict:
    """The digraph's borderline warnings go to stderr before the verdict is
    decided, so they precede a cross-check failure."""
    dg = stability_digraph(triple, form, weights)
    if not args.quiet:
        for line in dg.warnings:
            print(f"warning: {line}", file=sys.stderr)
    return decide_uniqueness(triple, form, weights, digraph=dg)


def _cmd_graphs(args, triple, weights) -> int:
    return _print({"name": triple.name, **_graphs_dict(triple)}, args)


def _cmd_solve(args, triple, weights) -> int:
    res = _solve(triple, weights, args)
    return _print(_eigenresult_dict(res), args, EXIT_OK if res.converged else EXIT_NUMERICAL)


def _cmd_verify(args, triple, weights) -> int:
    form = load_form(args.form)
    tol = args.tol if args.tol is not None else DEFAULT_VERIFY_TOL
    return _print(_eigenresult_dict(verify_eigenform(triple, weights, form, tol=tol)), args)


def _cmd_check_uniqueness(args, triple, weights) -> int:
    tol = args.tol if args.tol is not None else DEFAULT_VERIFY_TOL
    if args.form:
        form = load_form(args.form)
    else:
        solved = _solve(triple, weights, args)
        if not solved.converged:
            doc = {"error": "eigenform search did not converge", "solve": _eigenresult_dict(solved)}
            return _print(doc, args, EXIT_NUMERICAL)
        form = solved.form
    ver = verify_eigenform(triple, weights, form, tol=tol)
    if args.form and not ver.converged:
        doc = {"error": "supplied form is not a verified eigenform", "verify": _eigenresult_dict(ver)}
        return _print(doc, args, EXIT_INVALID_INPUT)
    verdict = _uniqueness(triple, weights, form, args)
    return _print(_verdict_dict(verdict, ver.rho), args)


def _cmd_report(args, triple, weights) -> int:
    doc: dict = {
        "name": triple.name,
        "validation": {"valid": True, "violations": []},
        "graphs": _graphs_dict(triple),
    }
    solved = _solve(triple, weights, args)
    doc["solve"] = _eigenresult_dict(solved)
    if not solved.converged:
        return _print(doc, args, EXIT_NUMERICAL)
    verdict = _uniqueness(triple, weights, solved.form, args)
    doc["uniqueness"] = _verdict_dict(verdict, solved.rho)
    doc["perron"] = [
        {
            "j": p.j,
            "s": p.s,
            "period": p.period,
            "eigenvalue": p.eigenvalue,
            "u_bar": p.u_bar.tolist(),
            "u_tilde": p.u_tilde.tolist(),
        }
        for p in verdict.digraph.payload.values()
    ]
    return _print(doc, args)


_HANDLERS = {
    "graphs": _cmd_graphs,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "check-uniqueness": _cmd_check_uniqueness,
    "report": _cmd_report,
}


def _dispatch(args) -> int:
    """Load and validate the fractal once, then hand a valid triple to the
    subcommand.  ``validate`` prints its verdict either way; an invalid
    triple stops every other subcommand with exit 1."""
    if args.command == "corpus":
        return _print({"builtins": [triple_to_dict(builtin(n)) for n in builtin_names()]}, args)
    triple, weights = _load_triple(args.fractal)
    violations = validate(triple)
    validation = {"valid": not violations, "violations": violations}
    if args.command == "validate":
        code = EXIT_INVALID_INPUT if violations else EXIT_OK
        return _print({"name": triple.name, **validation}, args, code)
    if violations:
        doc = {"name": triple.name, "validation": validation} if args.command == "report" else validation
        return _print(doc, args, EXIT_INVALID_INPUT)
    return _HANDLERS[args.command](args, triple, weights)


def run(argv=None) -> int:
    """Run one command line and return its exit code; a usage error prints
    argparse's message and returns 1, ``--help`` returns 0."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID_INPUT if exc.code else EXIT_OK
    if args.tol is not None and not 0 < args.tol < float("inf"):
        print("error: --tol must be positive and finite", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        return _dispatch(args)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except SingularInteriorError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
