"""Per-layer spans for the powerhyper benchmark, recorded from outside the package.

The tracer replaces each listed public function, in every module namespace
that binds it, by a wrapper that records a span: name, start, end, parent
span and request id.  Spans are kept in flat arrays in memory and written
out when the run ends.  A span's self time is its duration minus the time
covered by its child spans, so time spent in unlisted helpers counts towards
the nearest listed caller.  Extra counts come from arguments and return
values only, and from `cache_info()` for cached functions.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter
from time import perf_counter

# Layer (module) -> public functions wrapped in it.  `errors` does no work.
LAYERS = {
    "spectra": ("sym_eig", "sym_eig_vectors", "spectrum", "weakest_edges", "rho_unbalanced",
                "rho_vertex_deleted", "perron_pair"),
    "graphs": ("parse_edge_list", "connected_edge_subsets", "edge_subgraph", "delete_edge",
               "is_balanced"),
    "walks": ("covering_parity_closed_walks", "parity_closed_walks", "signed_moment_average"),
    "power": ("spectral_moment", "am_second_from_moments", "am_second_modulus",
              "second_modulus_candidates", "lift_eigenvector", "eigen_residual"),
    "oracle": ("power_iteration_radius", "brute_count_second_eigenvectors"),
    "variety": ("solve_link_variety", "system_residual", "jacobian_nonsingular"),
    "cli": ("main",),
}


def _order_sum(t, args, result):
    t.counts["spectra.sym_eig.order_sum"] += len(args[0])


def _classes(t, args, result):
    g = args[0]
    t.counts["spectra.rho_unbalanced.classes"] += 1 << (g.m - g.n + 1)


def _subsets(t, args, result):
    t.counts["graphs.connected_edge_subsets.subsets"] += len(result)
    t.counts["graphs.connected_edge_subsets.masks"] += 1 << args[0].m


def _distinct_graphs(t, args, result):
    t.covered_graphs.add(args[0])


def _signings(t, args, result):
    t.counts["walks.signed_moment_average.signings"] += 1 << args[0].m


def _iterations(t, args, result):
    t.counts["oracle.power_iteration_radius.iterations"] += result.iterations


def _solutions(t, args, result):
    t.counts["variety.solve_link_variety.solutions"] += result.nonzero_total


EXTRAS = {
    "spectra.sym_eig": _order_sum,
    "spectra.rho_unbalanced": _classes,
    "graphs.connected_edge_subsets": _subsets,
    "walks.covering_parity_closed_walks": _distinct_graphs,
    "walks.signed_moment_average": _signings,
    "oracle.power_iteration_radius": _iterations,
    "variety.solve_link_variety": _solutions,
}
BRUTE = "oracle.brute_count_second_eigenvectors"
RESIDUAL = "power.eigen_residual"

# Per-request counts beyond calls and self time, with their units.
EXTRA_METRICS = (
    ("spectra.sym_eig.order_sum", "1/req"),
    ("spectra.spectrum.hits", "1/req"),
    ("spectra.spectrum.misses", "1/req"),
    ("spectra.rho_unbalanced.classes", "1/req"),
    ("graphs.connected_edge_subsets.subsets", "1/req"),
    ("graphs.connected_edge_subsets.masks", "1/req"),
    ("graphs.connected_edge_subsets.yield", "ratio"),
    ("walks.covering_parity_closed_walks.distinct_graphs", "1/req"),
    ("walks.signed_moment_average.signings", "1/req"),
    ("oracle.power_iteration_radius.iterations", "1/req"),
    ("oracle.brute_count_second_eigenvectors.phases", "1/req"),
    ("variety.solve_link_variety.solutions", "1/req"),
    ("cli.main.report_bytes", "B/req"),
)
OVERHEAD_METRICS = (
    ("trace.untraced_rps", "1/s"),
    ("trace.traced_rps", "1/s"),
    ("trace.overhead", "ratio"),
)


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            units[f"{layer}.{fn}.calls"] = "1/req"
            units[f"{layer}.{fn}.self_s"] = "s/req"
        units[f"{layer}.self_s"] = "s/req"
    units.update(EXTRA_METRICS)
    units.update(OVERHEAD_METRICS)
    return units


class Tracer:
    """Wrappers for the listed functions of one imported package, and their spans."""

    def __init__(self, package, modules: dict):
        self.keys = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
        self.request = -1
        self.counts = Counter()
        self.covered_graphs = set()
        self.missing = []
        self._name = array("H")
        self._parent = array("l")
        self._request = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._patches = []
        namespaces = [package, *modules.values()]
        for key_id, key in enumerate(self.keys):
            layer, fn_name = key.split(".")
            original = getattr(modules[layer], fn_name, None)
            if original is None:
                self.missing.append(key)
                continue
            wrapper = self._wrap(key_id, key, original, EXTRAS.get(key))
            for ns in namespaces:
                if vars(ns).get(fn_name) is original:
                    self._patches.append((ns, fn_name, original, wrapper))

    def _wrap(self, key_id, key, fn, extra):
        names, parents, requests = self._name, self._parent, self._request
        starts, ends, stack = self._start, self._end, self._stack
        cache_info = getattr(fn, "cache_info", None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(key_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(tracer.request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            before = cache_info() if cache_info is not None else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if before is not None:
                after = cache_info()
                tracer.counts[f"{key}.hits"] += after.hits - before.hits
                tracer.counts[f"{key}.misses"] += after.misses - before.misses
            if extra is not None:
                extra(tracer, args, result)
            return result

        return wrapper

    def begin_request(self) -> None:
        self.request += 1

    def install(self) -> None:
        for ns, name, _original, wrapper in self._patches:
            setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        for ns, name, original, _wrapper in self._patches:
            setattr(ns, name, original)

    def metrics(self, requests: int) -> dict:
        """Per-request means of every span and count metric except the overhead ones."""
        n = len(self._start)
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += self._end[i] - self._start[i]
        calls = [0] * len(self.keys)
        self_s = [0.0] * len(self.keys)
        brute_id, residual_id = self.keys.index(BRUTE), self.keys.index(RESIDUAL)
        phases = 0
        for i in range(n):
            k = self._name[i]
            calls[k] += 1
            self_s[k] += self._end[i] - self._start[i] - child[i]
            if k == residual_id:
                p = self._parent[i]
                while p >= 0 and self._name[p] != brute_id:
                    p = self._parent[p]
                phases += p >= 0
        per = 1.0 / max(requests, 1)
        out = {}
        layer_self = Counter()
        for key_id, key in enumerate(self.keys):
            out[f"{key}.calls"] = calls[key_id] * per
            out[f"{key}.self_s"] = self_s[key_id] * per
            layer_self[key.split(".")[0]] += self_s[key_id] * per
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        counts = Counter(self.counts)
        counts["walks.covering_parity_closed_walks.distinct_graphs"] = len(self.covered_graphs)
        counts["oracle.brute_count_second_eigenvectors.phases"] = phases
        for name, _unit in EXTRA_METRICS:
            out[name] = counts[name] * per
        masks = counts["graphs.connected_edge_subsets.masks"]
        out["graphs.connected_edge_subsets.yield"] = (
            counts["graphs.connected_edge_subsets.subsets"] / masks if masks else 0.0)
        return out

    def write_spans(self, path) -> None:
        """Write every span, gzipped, as tab-separated request, id, parent, name, start_us, end_us."""
        origin = self._start[0] if self._start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("request\tspan\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self._start)):
                fh.write(f"{self._request[i]}\t{i}\t{self._parent[i]}\t{self.keys[self._name[i]]}\t"
                         f"{(self._start[i] - origin) * 1e6:.1f}\t{(self._end[i] - origin) * 1e6:.1f}\n")
