"""Output checks for the powerhyper CLI-session benchmark.

Every report is first held to identities that need no stored answer: the
closed forms the package's own docstrings state, and agreement between the
commands of one session.  For the default seed, the essential fields of each
report are also compared with values recorded at the seed commit: integers,
strings and edge sets exactly, floats to a relative 1e-9.
"""

from __future__ import annotations

from fractions import Fraction

REL_TOL = 1e-9


class CheckFailure(Exception):
    """A report contradicts an identity or a recorded value."""


def _require(cond, message):
    if not cond:
        raise CheckFailure(message)


def _close(a, b, rel=REL_TOL):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-12


def _check_lambda(res, n, m, edges):
    k = int(res["k"])
    cands = res["candidates"]
    _require(cands, "lambda: no candidates")
    if k >= 4:
        _require(set(cands) == {"rho_edge_deleted"}, "lambda: k >= 4 has one candidate")
    _require(_close(res["lambda"], max(cands.values()) ** (2.0 / k)),
             "lambda != max(candidates)^(2/k)")
    _require(res["lambda"] < res["rho_power"], "lambda: second modulus not below the radius")


def _check_multiplicity(res, n, m, edges):
    k = int(res["k"])
    am_radius = int(res["am_radius"])
    _require(am_radius == k ** (m * (k - 3) + n - 1), "am_radius != k^(m(k-3)+n-1)")
    _require(res["per_edge"], "multiplicity: no weakest edge")
    total = sizes = 0
    for edge, ec in res["per_edge"].items():
        delta = int(ec["delta"])
        size, mult, contribution = (int(ec[f]) for f in
                                    ("variety_size", "point_multiplicity", "contribution"))
        _require(contribution == size * mult, f"{edge}: contribution != size * multiplicity")
        _require(size == k ** (m * (k - 3) + n + 1 - k + delta), f"{edge}: variety size")
        _require(contribution == size * (k - 1) ** (k - 1 - delta) - 2**delta * am_radius,
                 f"{edge}: contribution misses the closed form")
        total += contribution
        sizes += size
    _require(int(res["am_second"]) == total, "am_second != sum of contributions")
    _require(int(res["variety_size"]) == sizes, "variety_size != sum over edges")


def _check_eigvec(res, n, m, edges):
    entries = res["eigenvectors"]
    _require(entries, "eigvec: no eigenvectors")
    _require(all(e["verified"] is True for e in entries), "eigvec: unverified eigenvector")
    _require(all(_close(e["lambda"], entries[0]["lambda"]) for e in entries),
             "eigvec: weakest edges disagree on lambda")


def _check_oracle(res, n, m, edges):
    lo, hi = res["power_iteration"]["final_bounds"]
    ref = res["reference_radius"]
    _require(lo <= ref * (1 + REL_TOL) and ref <= hi * (1 + REL_TOL),
             "oracle: final bounds do not bracket the reference radius")
    if res["brute_second_count"] is None:
        _require(bool(res["brute_skip_reason"]), "oracle: brute count missing without a reason")


def _check_walks(res, n, m, edges):
    parity, covering, signed = res["parity"], res["covering"], res["signed_moment_average"]
    _require((covering is None) == (m > 10), "walks: covering count presence")
    _require((signed is None) == (m > 12), "walks: signed average presence")
    if signed is not None:
        _require(Fraction(signed) == int(parity), "signed_moment_average != parity")
    if covering is not None:
        _require(0 <= int(covering) <= int(parity), "walks: covering exceeds parity")


def _check_moments(res, n, m, edges):
    k = int(res["k"])
    rows = res["rows"]
    _require([int(r["d"]) for r in rows] == [k * int(r["ell"]) for r in rows], "moments: d != k*ell")
    _require(int(res["am_radius"]) == k ** (m * (k - 3) + n - 1), "moments: am_radius")
    # S_k sums over single edges; S_2k adds the paths with two edges.
    s1 = m * (k - 1) ** (n - 2 + (k - 2) * (m - 1)) * k ** (k - 1)
    _require(int(rows[0]["moment"]) == s1, "moments: S_k != m (k-1)^(N-k) k^(k-1)")
    if len(rows) > 1:
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        paths = sum(d * (d - 1) // 2 for d in degree)
        s2 = s1 + 2 * paths * (k - 1) ** (n - 3 + (k - 2) * (m - 2)) * k ** (2 * k - 3)
        _require(int(rows[1]["moment"]) == s2, "moments: S_2k misses the two-edge closed form")


def _check_variety(res, n, m, edges):
    k, delta = int(res["k"]), int(res["delta"])
    bezout = int(res["bezout"])
    _require(bezout == (k - 1) ** (k - 1 - delta), "variety: bezout != (k-1)^(k-1-delta)")
    _require(int(res["nonzero_total"]) + int(res["origin_multiplicity"]) == bezout,
             "variety: nonzero + origin != bezout")
    _require(res["all_nonzero_jacobians_dominant"] is True, "variety: Jacobian not dominant")
    if res["solutions"] is not None:
        _require(len(res["solutions"]) == int(res["nonzero_total"]), "variety: solution list")


def _check_analyze(res, n, m, edges):
    rho = res["rho"]
    _require(res["lambda_min"] >= -rho * (1 + REL_TOL), "analyze: lambda_min below -rho")
    for key in ("rho_vertex_deleted", "rho_edge_deleted", "rho_unbalanced"):
        if res[key] is not None:
            _require(res[key] < rho, f"analyze: {key} not below rho")


def _check_weakest_edges(res, n, m, edges):
    per_edge = res["rho_per_edge"]
    _require(len(per_edge) == m, "weakest-edges: one radius per edge")
    top = max(per_edge.values())
    _require(_close(res["rho_edge_deleted"], top), "weakest-edges: rho is not the top radius")
    winners = res["edges"]
    _require(winners, "weakest-edges: no winner")
    for w in winners:
        u, v = sorted(int(x) for x in w["edge"])
        _require(per_edge[f"{u}-{v}"] >= top - 1e-9, "weakest-edges: winner below the top radius")
    _require(int(res["n_pendant"]) + int(res["n_internal"]) == len(winners),
             "weakest-edges: pendant + internal != winners")


IDENTITIES = {
    "lambda": _check_lambda,
    "multiplicity": _check_multiplicity,
    "eigvec": _check_eigvec,
    "oracle": _check_oracle,
    "walks": _check_walks,
    "moments": _check_moments,
    "variety": _check_variety,
    "analyze": _check_analyze,
    "weakest-edges": _check_weakest_edges,
}


def _edge_set(pairs):
    return {tuple(sorted(int(v) for v in e)): int(d) for e, d in pairs}


def _check_session(cmds, n, m):
    """Agreement between the commands one session ran on the same graph."""
    lam, mult, vec = cmds.get("lambda"), cmds.get("multiplicity"), cmds.get("eigvec")
    if lam and vec and lam["k"] == vec["k"]:
        for e in vec["eigenvectors"]:
            _require(_close(e["lambda"], lam["lambda"]), "eigvec lambda != lambda report")
    if mult and vec:
        winners = _edge_set((e["edge"], e["delta"]) for e in vec["eigenvectors"])
        listed = _edge_set((key.split("-"), ec["delta"]) for key, ec in mult["per_edge"].items())
        _require(winners == listed, "eigvec and multiplicity disagree on the weakest edges")
    oracle = cmds.get("oracle")
    if oracle and vec and oracle["brute_second_count"] is not None:
        k = int(oracle["k"])
        expect = sum(k ** (m * (k - 3) + n + 1 - k + int(e["delta"])) for e in vec["eigenvectors"])
        _require(int(oracle["brute_second_count"]) == expect,
                 "brute-force count != sum of per-edge variety sizes")
    weakest = cmds.get("weakest-edges")
    if weakest and vec:
        listed = _edge_set((e["edge"], e["delta"]) for e in weakest["edges"])
        _require(listed == _edge_set((e["edge"], e["delta"]) for e in vec["eigenvectors"]),
                 "eigvec and weakest-edges disagree on the weakest edges")
    analyze = cmds.get("analyze")
    if lam and analyze and int(lam["k"]) == 3:
        cands = lam["candidates"]
        for key in ("rho_vertex_deleted", "rho_unbalanced"):
            if key in cands:
                _require(_close(cands[key], analyze[key]), f"lambda and analyze disagree on {key}")
        if weakest:
            _require(_close(weakest["rho_edge_deleted"], analyze["rho_edge_deleted"]),
                     "weakest-edges and analyze disagree on rho_edge_deleted")
        if "abs_lambda_min" in cands:
            _require(_close(cands["abs_lambda_min"], -analyze["lambda_min"]),
                     "lambda and analyze disagree on lambda_min")


_MALFORMED = (CheckFailure, KeyError, IndexError, TypeError, ValueError, AttributeError)


def check_session(reports, graph) -> list:
    """One failure reason, or None, per report of a session.

    `reports` holds the parsed CLI reports in command order, with None for a
    request that already failed; `graph` is the session's (n, edges) input.
    """
    n, edges = graph
    m = len(edges)
    reasons = []
    for r in reports:
        if r is None:
            reasons.append("no report")
            continue
        try:
            if r["input"] is not None:
                _require((int(r["input"]["n"]), int(r["input"]["m"])) == (n, m),
                         "input summary does not match the generated graph")
            IDENTITIES[r["command"]](r["results"], n, m, edges)
            reasons.append(None)
        except _MALFORMED as exc:
            reasons.append(f"{r.get('command')}: {type(exc).__name__}: {exc}")
    try:
        _check_session({r["command"]: r["results"] for r in reports if r is not None}, n, m)
    except _MALFORMED as exc:
        reasons = [reason or f"session: {type(exc).__name__}: {exc}" for reason in reasons]
    return reasons


# Fields left out of the recorded values: the power-iteration trace, which
# any convergent iteration may change (the identity check still holds it to
# the reference radius), eigenvector entries and residuals near 1e-16, and
# the explicit variety solutions.
_DROPPED = {("oracle", "power_iteration"), ("eigvec", "eigenvectors", "vector"),
            ("eigvec", "eigenvectors", "residual"), ("variety", "solutions")}


def essentials(report) -> dict:
    """The recorded part of a report: its input summary and results."""
    def strip(value, path):
        if isinstance(value, dict):
            return {k: strip(v, path + (k,)) for k, v in value.items()
                    if path + (k,) not in _DROPPED}
        if isinstance(value, list):
            return [strip(v, path) for v in value]
        return value

    cmd = report["command"]
    return {"command": cmd, "input": report["input"], "results": strip(report["results"], (cmd,))}


def compare(expected, actual, where="") -> None:
    """Raise CheckFailure unless actual matches expected: floats to REL_TOL, all else exactly."""
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        _require(_close(expected, actual), f"{where}: {actual!r} != recorded {expected!r}")
    elif isinstance(expected, dict) and isinstance(actual, dict):
        _require(expected.keys() == actual.keys(), f"{where}: keys differ from the record")
        for key in expected:
            compare(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        _require(len(expected) == len(actual), f"{where}: length differs from the record")
        for i, (e, a) in enumerate(zip(expected, actual)):
            compare(e, a, f"{where}[{i}]")
    else:
        _require(expected == actual and type(expected) is type(actual),
                 f"{where}: {actual!r} != recorded {expected!r}")
