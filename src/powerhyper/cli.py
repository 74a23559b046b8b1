"""Command-line front end: graph ingestion, subcommand dispatch, and
machine-readable report emission.

Every run prints one JSON report with keys {command, input, results,
version, seconds}, serialised with sorted keys.  Exact integers are
emitted as decimal strings so arbitrary-precision values survive JSON.
Exit codes: 0 success, 1 usage error, 2 computational precondition
failure (one-line reason on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import cache

from . import __version__
from .errors import PowerhyperError
from .graphs import Graph, classify, is_connected, parse_edge_list
from .oracle import brute_count_second_eigenvectors, power_iteration_radius
from .power import (
    _check_residual_tol,
    am_second_from_moments,
    am_second_modulus,
    am_spectral_radius,
    build_power,
    lift_eigenvector,
    power_spectral_radius,
    second_modulus_candidates,
    spectral_moment,
)
from .spectra import (
    lambda_min,
    lambda_second,
    rho_unbalanced,
    rho_vertex_deleted,
    spectral_radius,
    weakest_edges,
)
from .variety import LinkSystem, jacobian_nonsingular, solve_link_variety
from .walks import (
    COVERING_EDGE_CAP,
    SIGNED_EDGE_CAP,
    covering_parity_closed_walks,
    parity_closed_walks,
    signed_moment_average,
    walk_ratio_series,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _edge_key(e):
    return f"{e[0]}-{e[1]}"


def _jsonable(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    raise TypeError(f"cannot serialise {type(value)!r}")


def _load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _input_summary(g: Graph):
    return {
        "n": g.n,
        "m": g.m,
        "class": classify(g).value if is_connected(g) else None,
    }


def _parse_mu(text):
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        raise _UsageError(f"cannot parse complex number {text!r}") from None


def _cmd_analyze(g, args):
    return {
        "class": classify(g).value,
        "rho": spectral_radius(g),
        "lambda_2": lambda_second(g) if g.n >= 2 else None,
        "lambda_min": lambda_min(g),
        "rho_vertex_deleted": rho_vertex_deleted(g) if g.n >= 2 else None,
        "rho_edge_deleted": weakest_edges(g).rho if g.m >= 2 else None,
        "rho_unbalanced": rho_unbalanced(g),
    }


def _cmd_lambda(g, args):
    candidates = second_modulus_candidates(g, args.k)
    return {
        "lambda": max(candidates.values()) ** (2.0 / args.k),
        "k": args.k,
        "candidates": candidates,
        "rho_power": power_spectral_radius(g, args.k),
    }


def _cmd_weakest_edges(g, args):
    rep = weakest_edges(g, tie_tol=args.tol)
    return {
        "rho_edge_deleted": rep.rho,
        "edges": [{"edge": list(e), "delta": d} for e, d in rep.edges],
        "rho_per_edge": {_edge_key(e): r for e, r in sorted(rep.rho_per_edge.items())},
        "n_pendant": rep.n_pendant,
        "n_internal": rep.n_internal,
    }


def _cmd_multiplicity(g, args):
    rep = am_second_modulus(g, args.k)
    return {
        "k": args.k,
        "am_radius": rep.am_radius,
        "am_second": rep.am_second,
        "variety_size": rep.variety_size,
        "variety_total": rep.am_second,
        "per_edge": {
            _edge_key(e): {
                "delta": ec.delta,
                "variety_size": ec.variety_size,
                "point_multiplicity": ec.point_multiplicity,
                "contribution": ec.contribution,
            }
            for e, ec in sorted(rep.per_edge.items())
        },
    }


def _moment_rows(g, k, ell_max):
    rows = []
    for ell in range(1, ell_max + 1):
        # the estimate checks its preconditions before any moment is computed
        estimate = am_second_from_moments(g, k, ell) if k >= 4 and g.m >= 2 else None
        d = k * ell
        rows.append({"ell": ell, "d": d, "moment": spectral_moment(g, k, d), "estimate": estimate})
    return rows


def _write_csv(path, columns, rows):
    """One line per row; None is written as an empty field, anything else by str."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join("" if row[c] is None else str(row[c]) for c in columns) + "\n")


def _cmd_moments(g, args):
    rows = _moment_rows(g, args.k, args.ell)
    if args.csv:
        _write_csv(args.csv, ("ell", "d", "moment", "estimate"), rows)
    results = {"k": args.k, "rows": rows}
    if args.k >= 4 and g.m >= 2:
        results["am_second_exact"] = am_second_modulus(g, args.k).am_second
        results["am_radius"] = am_spectral_radius(g, args.k)
    return results


def _cmd_eigvec(g, args):
    _check_residual_tol(args.tol)
    rep = weakest_edges(g)
    h = build_power(g, args.k)
    entries = []
    for e, delta in rep.edges:
        pair = lift_eigenvector(g, args.k, e)
        entries.append(
            {
                "edge": list(e),
                "delta": delta,
                "lambda": pair.value,
                "residual": pair.residual,
                "verified": pair.residual <= args.tol,
                "vector": list(pair.vector),
                "zero_support": [i for i, v in enumerate(pair.vector) if v == 0.0],
            }
        )
    return {"k": args.k, "n_vertices": h.n_vertices, "eigenvectors": entries}


def _cmd_walks(g, args):
    results = {
        "d": args.d,
        "parity": parity_closed_walks(g, args.d),
        "covering": (
            covering_parity_closed_walks(g, args.d)
            if is_connected(g) and g.m <= COVERING_EDGE_CAP
            else None
        ),
        "signed_moment_average": (
            signed_moment_average(g, args.d) if g.m <= SIGNED_EDGE_CAP else None
        ),
    }
    if args.ell:
        series = walk_ratio_series(g, args.ell)
        rows = [
            {
                "ell": ell,
                "length": 2 * ell,
                "covering": covering_parity_closed_walks(g, 2 * ell),
                "ratio": ratio,
            }
            for ell, ratio in enumerate(series, start=1)
        ]
        results["ratio_rows"] = rows
        results["ratio_limit"] = 2.0 ** (g.n - g.m)
        if args.csv:
            _write_csv(args.csv, ("ell", "length", "covering", "ratio"), rows)
    return results


def _cmd_variety(g, args):
    sys_ = LinkSystem(k=args.k, delta=args.delta, mu=_parse_mu(args.mu))
    rep = solve_link_variety(sys_)
    return {
        "k": args.k,
        "delta": args.delta,
        "mu": sys_.mu,
        "bezout": rep.bezout,
        "nonzero_total": rep.nonzero_total,
        "origin_multiplicity": rep.origin_multiplicity,
        "all_nonzero_jacobians_dominant": all(
            jacobian_nonsingular(sys_, p) for p in rep.nonzero_solutions
        ),
        "solutions": (
            [list(p) for p in rep.nonzero_solutions]
            if rep.nonzero_total <= 64
            else None
        ),
    }


def _cmd_oracle(g, args):
    h = build_power(g, args.k)
    trace = power_iteration_radius(h, tol=args.tol)
    results = {
        "k": args.k,
        "power_iteration": {
            "converged_value": trace.converged_value,
            "iterations": trace.iterations,
            "final_bounds": list(trace.bounds[-1]),
            "bounds": [list(b) for b in trace.bounds],
        },
        "reference_radius": power_spectral_radius(g, args.k),
    }
    try:
        results["brute_second_count"] = brute_count_second_eigenvectors(g, args.k)
        results["brute_skip_reason"] = None
    except PowerhyperError as exc:
        results["brute_second_count"] = None
        results["brute_skip_reason"] = str(exc)
    return results


# name -> (handler, help, whether it reads --graph,
#          (flag, add_argument keywords) for each of its other flags but --json)
_COMMANDS = {
    "analyze": (_cmd_analyze, "graph-level spectral summary", True),
    "lambda": (_cmd_lambda, "second-largest eigenvalue modulus of the k-power hypergraph", True,
        ("--k", dict(type=int, required=True, help="hyperedge size")),
    ),
    "weakest-edges": (_cmd_weakest_edges, "edges whose removal lowers the radius the least", True,
        ("--tol", dict(type=float, default=1e-9, help="tie tolerance")),
    ),
    "multiplicity": (_cmd_multiplicity, "algebraic multiplicity of the second-largest modulus", True,
        ("--k", dict(type=int, required=True, help="hyperedge size")),
    ),
    "moments": (_cmd_moments, "spectral moments and the multiplicity estimate series", True,
        ("--k", dict(type=int, required=True, help="hyperedge size")),
        ("--ell", dict(type=int, default=8, help="series length")),
        ("--csv", dict(help="also write the series as CSV")),
    ),
    "eigvec": (_cmd_eigvec, "lifted eigenvectors for every weakest edge", True,
        ("--k", dict(type=int, required=True, help="hyperedge size")),
        ("--tol", dict(type=float, default=1e-10, help="residual tolerance")),
    ),
    "walks": (_cmd_walks, "parity-closed and covering walk counts", True,
        ("--d", dict(type=int, required=True, help="walk length")),
        ("--ell", dict(type=int, default=0, help="ratio series length")),
        ("--csv", dict(help="write the ratio series as CSV")),
    ),
    "variety": (_cmd_variety, "local polynomial system solution counts", False,
        ("--k", dict(type=int, required=True, help="hyperedge size")),
        ("--mu", dict(default="1", help="nonzero complex parameter")),
        ("--delta", dict(type=int, choices=(0, 1), default=1)),
    ),
    "oracle": (_cmd_oracle, "tensor power iteration and brute-force eigenvector counts", True,
        ("--k", dict(type=int, required=True, help="hyperedge size")),
        ("--tol", dict(type=float, default=1e-8, help="iteration gap target")),
    ),
}


@cache
def _build_parser():
    parser = _Parser(prog="powerhyper", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_fn, help_text, takes_graph, *flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if takes_graph:
            p.add_argument("--graph", required=True, help="edge-list file")
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.add_argument("--json", help="also write the report to this path")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    started = time.perf_counter()
    fn = _COMMANDS[args.command][0]
    try:
        graph = _load_graph(args.graph) if "graph" in args else None
        results = fn(graph, args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except PowerhyperError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 2

    report = {
        "command": args.command,
        "input": _input_summary(graph) if graph is not None else None,
        "results": results,
        "version": __version__,
        "seconds": round(time.perf_counter() - started, 6),
    }
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2)
    print(text)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
