"""Seeded input generator for the powerhyper CLI-session benchmark.

A workload is an endless sequence of blocks.  Block b of a workload is drawn
from its own random stream, keyed by (workload, seed, b), so any block can be
generated on demand and the same seed always gives the same inputs.  Every
block holds one session per stratum of the workload's size table, so all
blocks share one mix of sizes and a run made of whole blocks does not depend
on which graphs happened to be large.  A session is one graph file plus the
CLI commands a user would run on it, in order.

Every graph is connected, has vertex labels 0..n-1 in random order and edges
in random order, and stays inside the package caps: at most 20 edges for the
subset scan, COVERING_EDGE_CAP (10) and SIGNED_EDGE_CAP (12) decide which
walk counts the `walks` command computes, and the certify graphs keep the
power hypergraph within BRUTE_VERTEX_CAP (12) vertices at k = 4.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Strata: each block draws one graph per stratum, with its size uniform in
# the stratum's range.  Ranges rather than fixed sizes fill the gaps in the
# latency distribution, so its percentiles do not jump between size classes
# from one seed to the next; deletion, whose sizes lie too far apart for
# that, places its percentiles inside clusters instead.
# deletion: n, with m uniform in [1.4n, 1.6n] (average degree about 3); the
# k >= 4 path.  The first, eigensolve-bound request of a session is the
# slowest, and each size is a cluster of its latencies 1.5 to 2 times apart
# from the next.  The four sessions at n = 20 put the 90th percentile of a
# block's 36 requests inside one cluster, four samples deep, rather than on
# the edge between two.
DELETION_STRATA = (12, 15, 18, 20, 20, 20, 20, 24, 28)
# switching: (n range, cyclomatic number m - n + 1); the k = 3 path.
SWITCHING_STRATA = (((8, 9), 5), ((10, 11), 5), ((8, 9), 6), ((10, 11), 6),
                    ((8, 9), 7), ((10, 11), 7), ((8, 9), 8), ((10, 11), 8))
# moments: (n range, m).  Tree-like graphs, dominated by the 2^m subset
# scan, next to higher-cyclomatic ones, dominated by the walk DP and, for
# m <= 12, by the signed enumeration of `walks`.  Sessions with m > 12 skip
# `walks`, which there counts only parity-closed walks in a few ms; one such
# request per large graph would put the median in the gap between two
# clusters of latencies instead of inside one.
MOMENTS_STRATA = (((8, 9), 10), ((9, 10), 10), ((10, 11), 10), ((8, 9), 11),
                  ((12, 13), 13), ((13, 14), 13), ((11, 12), 14), ((10, 11), 14))

# Tiny graphs whose brute-force eigenvector enumeration at k = 4 stays near
# one second.  C4 at k = 4 (about 23 s) and K3 at k = 5 are left out.
TINY_GRAPHS = (
    ("P3", 3, ((0, 1), (1, 2))),
    ("K3", 3, ((0, 1), (1, 2), (0, 2))),
    ("P4", 4, ((0, 1), (1, 2), (2, 3))),
    ("K13", 4, ((0, 1), (0, 2), (0, 3))),
)
# (k, delta) of the link-variety requests; k = 8 (about 19 s) is left out.
VARIETY_SYSTEMS = ((5, 0), (5, 1), (6, 0), (6, 1), (7, 0), (7, 1))
CERTIFY_SESSIONS = 12  # lcm of 4 graphs and 6 systems: each graph 3 times, each system twice


@dataclass
class Session:
    """One graph, as (n, edges), and the commands run on it in order."""

    graph: tuple
    commands: tuple


def random_connected_graph(rng: random.Random, n: int, m: int) -> tuple:
    """(n, edges): a random recursive spanning tree plus m - n + 1 random chords."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no simple connected graph with n={n}, m={m}")
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return n, _shuffled(rng, sorted(edges))


def relabelled(rng: random.Random, n: int, edges) -> tuple:
    """A copy of the graph under a random vertex permutation and edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    return n, _shuffled(rng, [(perm[u], perm[v]) for u, v in edges])


def _shuffled(rng, edges):
    out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(out)
    return tuple(out)


def _random_mu(rng):
    # a modulus within [0.8, 1.25] keeps every solution's residual far below
    # the package's 1e-12 acceptance threshold; the caller passes it as
    # --mu=<value> because a leading minus sign would read as an option
    z = cmath.rect(rng.uniform(0.8, 1.25), rng.uniform(-math.pi, math.pi))
    return f"{z.real:.6f}{z.imag:+.6f}i"


DELETION_COMMANDS = (("lambda", "--k", "4"), ("multiplicity", "--k", "4"),
                     ("eigvec", "--k", "4"), ("oracle", "--k", "5"))
# The closing weakest-edges request hits the spectrum cache that analyze
# filled; it also keeps the median latency inside one request type rather
# than on the gap between the two heavier ones.
SWITCHING_COMMANDS = (("lambda", "--k", "3"), ("analyze",), ("weakest-edges",))
MOMENTS_COMMANDS = (("moments", "--k", "4", "--ell", "4"), ("walks", "--d", "8"))
SIGNED_EDGE_CAP = 12  # the package's cap on `walks`' signed enumeration


def _deletion(rng):
    sessions = []
    for n in DELETION_STRATA:
        m = rng.randint(round(1.4 * n), round(1.6 * n))
        sessions.append(Session(random_connected_graph(rng, n, m), DELETION_COMMANDS))
    return sessions


def _switching(rng):
    sessions = []
    for n_range, cyclomatic in SWITCHING_STRATA:
        n = rng.randint(*n_range)
        sessions.append(Session(random_connected_graph(rng, n, n - 1 + cyclomatic), SWITCHING_COMMANDS))
    return sessions


def _moments(rng):
    sessions = []
    for n_range, m in MOMENTS_STRATA:
        n = rng.randint(*n_range)
        commands = MOMENTS_COMMANDS if m <= SIGNED_EDGE_CAP else MOMENTS_COMMANDS[:1]
        sessions.append(Session(random_connected_graph(rng, n, m), commands))
    return sessions


def _certify(rng):
    sessions = []
    for j in range(CERTIFY_SESSIONS):
        _name, n, edges = TINY_GRAPHS[j % len(TINY_GRAPHS)]
        k_vec = 5 if j % 3 == 1 else 4
        k_var, delta = VARIETY_SYSTEMS[j % len(VARIETY_SYSTEMS)]
        sessions.append(Session(
            relabelled(rng, n, edges),
            (("eigvec", "--k", str(k_vec)), ("oracle", "--k", "4"),
             ("variety", "--k", str(k_var), "--delta", str(delta), f"--mu={_random_mu(rng)}")),
        ))
    return sessions


def _warmup(rng, workload):
    """One session on a graph that no block of the workload contains."""
    if workload == "deletion":
        return Session(random_connected_graph(rng, 10, 15), DELETION_COMMANDS)
    if workload == "switching":
        return Session(random_connected_graph(rng, 7, 10), SWITCHING_COMMANDS)
    if workload == "moments":
        return Session(random_connected_graph(rng, 7, 9), MOMENTS_COMMANDS)
    c4 = relabelled(rng, 4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    return Session(c4, (("eigvec", "--k", "4"), ("oracle", "--k", "5"),
                        ("variety", "--k", "4", "--delta", "1", "--mu", "1")))


BUILDERS = {"deletion": _deletion, "switching": _switching, "moments": _moments, "certify": _certify}
WORKLOADS = tuple(BUILDERS)


def block(workload: str, seed: int, b: int) -> list:
    """The sessions of block b; the same (workload, seed, b) gives the same block."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}:{b}"))


def warmup(workload: str, seed: int) -> Session:
    return _warmup(random.Random(f"{workload}:{seed}:warmup"), workload)


def write_graph(path: Path, graph) -> None:
    # Always write the "n m" header: without it, a first edge line "a b" with
    # b equal to the number of remaining lines and a above every other label
    # would be read as a header, as the input format documents.
    n, edges = graph
    lines = [f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges]
    path.write_text("".join(lines), encoding="utf-8")


def materialise(sessions, work_dir: Path, tag: str) -> list:
    """Write each session's graph file; return its argv lists, one per command."""
    out = []
    for s, session in enumerate(sessions):
        path = work_dir / f"{tag}-{s}.txt"
        write_graph(path, session.graph)
        # `variety` reads no graph
        out.append([list(cmd) + ([] if cmd[0] == "variety" else ["--graph", str(path)])
                    for cmd in session.commands])
    return out
