"""Per-layer spans for one kalmanres CLI process.

The tracer wraps public functions of each kalmanres module at the module
binding its caller looks the name up in, so nothing under src/ changes.
Every wrapped call is a span: spans nest through a stack, and a span's self
time is its duration minus the time its child spans cover.  Spans are
aggregated per name as they close (calls, total seconds, self seconds)
instead of being stored one by one, because a large symbolic call makes
over 10^5 of them.

Span names are "<layer>.<function>"; the layer is the kalmanres module that
defines the function.  BINDINGS is the one table of what is wrapped where.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

SYMBOLIC = frozenset({"cli-golden", "symbolic-large"})
GOLDEN = frozenset({"cli-golden"})
SAMPLING = frozenset({"cli-golden", "fp-many-small"})
FP = frozenset({"cli-golden", "fp-dense", "fp-many-small"})
NONE = frozenset()


@dataclass(frozen=True)
class Binding:
    """One wrapped name.

    span: "<layer>.<function>" the calls are recorded under.
    module, attr: the binding patched, e.g. kalmanres.geometric and
        cohomology_of_summand; a dotted attr names a method on a class.
    workloads: the workloads whose calls must reach this binding at least
        once; a traced run of such a workload fails if none do.
    """

    span: str
    module: str
    attr: str
    workloads: frozenset

    @property
    def key(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


def _b(span, module, attr, workloads):
    return Binding(span, "kalmanres." + module, attr, workloads)


BINDINGS = (
    # partitions
    _b("partitions.partitions_in_box", "geometric", "partitions_in_box", SYMBOLIC),
    _b("partitions.partitions_in_box", "schur", "partitions_in_box", SYMBOLIC),
    _b("partitions.partitions_in_box", "resolutions", "partitions_in_box", GOLDEN),
    _b("partitions.partitions_of", "schur", "partitions_of", NONE),
    _b("partitions.schur_rank", "geometric", "schur_rank", SYMBOLIC),
    _b("partitions.schur_rank", "resolutions", "schur_rank", GOLDEN),
    _b("partitions.schur_rank", "cli", "schur_rank", GOLDEN),
    # schur
    _b("schur.lr_coefficient", "schur", "lr_coefficient", SYMBOLIC),
    _b("schur.lr_product", "resolutions", "lr_product", GOLDEN),
    # bott
    _b("bott.cohomology_of_summand", "geometric", "cohomology_of_summand", SYMBOLIC),
    # geometric
    _b("geometric.xi_exterior_decomposition", "geometric", "xi_exterior_decomposition", SYMBOLIC),
    _b("geometric.cohomology_table", "geometric", "cohomology_table", SYMBOLIC),
    _b("geometric.cohomology_table", "cli", "cohomology_table", GOLDEN),
    _b("geometric.resolution_terms", "cli", "resolution_terms", SYMBOLIC),
    _b("geometric.resolution_terms", "resolutions", "resolution_terms", GOLDEN),
    _b("geometric.hilbert_series", "cli", "hilbert_series", SYMBOLIC),
    _b("geometric.hilbert_series", "resolutions", "hilbert_series", GOLDEN),
    _b("geometric.hilbert_series_normalization", "cli", "hilbert_series_normalization", SYMBOLIC),
    _b("geometric.hilbert_series_normalization", "resolutions", "hilbert_series_normalization", SYMBOLIC),
    # resolutions
    _b("resolutions.koszul_table", "resolutions", "koszul_table", GOLDEN),
    _b("resolutions.mapping_cone", "resolutions", "mapping_cone", GOLDEN),
    _b("resolutions.intermediate_table_d3", "resolutions", "intermediate_table_d3", GOLDEN),
    _b("resolutions.predicted_hilbert_series", "resolutions", "predicted_hilbert_series", SYMBOLIC),
    _b("resolutions.cone_table_d2", "resolutions", "cone_table_d2", GOLDEN),
    _b("resolutions.cone_table_d2", "cli", "cone_table_d2", GOLDEN),
    _b("resolutions.kalman_cone_d3", "resolutions", "kalman_cone_d3", GOLDEN),
    _b("resolutions.kalman_cone_d3", "cli", "kalman_cone_d3", GOLDEN),
    _b("resolutions.table_w_line", "resolutions", "table_w_line", GOLDEN),
    _b("resolutions.table_w_line", "cli", "table_w_line", GOLDEN),
    _b("resolutions.conjecture_consistency", "cli", "conjecture_consistency", SYMBOLIC),
    _b("resolutions.kalman_equations_d3", "cli", "kalman_equations_d3", GOLDEN),
    _b("resolutions.kalman_table_d2", "cli", "kalman_table_d2", GOLDEN),
    _b("resolutions.table_corank1", "cli", "table_corank1", GOLDEN),
    _b("resolutions.table_s1", "cli", "table_s1", GOLDEN),
    _b("resolutions.table_s2_d3", "cli", "table_s2_d3", GOLDEN),
    # kalman
    _b("kalman.SplitMix64.matrix", "kalman", "SplitMix64.matrix", FP),
    _b("kalman.sample_member", "cli", "sample_member", SAMPLING),
    _b("kalman.sample_member", "kalman", "sample_member", SAMPLING),
    _b("kalman.sample_generic", "cli", "sample_generic", SAMPLING),
    _b("kalman.reduced_kalman_matrix", "cli", "reduced_kalman_matrix", SAMPLING),
    _b("kalman.reduced_kalman_matrix", "kalman", "reduced_kalman_matrix", FP),
    _b("kalman.minors_vanish", "cli", "minors_vanish", SAMPLING),
    _b("kalman.FpMatrix.rank", "kalman", "FpMatrix.rank", SAMPLING),
    _b("kalman.jacobian_codim", "cli", "jacobian_codim", SAMPLING),
    _b("kalman.numeric_hilbert_function", "cli", "numeric_hilbert_function", frozenset({"fp-dense"})),
)


class BindingError(Exception):
    """A name in BINDINGS no longer exists where it is patched."""


class Tracer:
    """Span stack plus per-name aggregates and named counters.

    spans[name] = [calls, total_s, self_s]; counters[name] = number.
    `clock` is injectable so tests can drive nested spans deterministically.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.binding_calls: dict[str, int] = {}
        self._stack: list[list] = []  # one [child_seconds] cell per open span

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, span: str, fn, observe=None, key: str = None):
        """Return fn wrapped in a span; observe(tracer, args, result, seconds)
        runs after each call that returns."""
        stat = self.spans.setdefault(span, [0, 0.0, 0.0])
        key = key or span
        self.binding_calls.setdefault(key, 0)
        stack, clock, calls = self._stack, self.clock, self.binding_calls

        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - cell[0]
                calls[key] += 1
            if observe is not None:
                observe(self, args, result, elapsed)
            return result

        return wrapper

    def report(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counters": dict(self.counters),
            "binding_calls": dict(self.binding_calls),
        }


# -- observers: counts taken where the work happens -----------------------


def _lr_nonzero(tracer, args, result, elapsed):
    if result:
        tracer.count("schur.lr_nonzero")


def _bott_vanishing(tracer, args, result, elapsed):
    if result.is_zero:
        tracer.count("bott.vanishing")


def _xi_summands(tracer, args, result, elapsed):
    tracer.count("geometric.xi_summands", len(result))


class _TableRoute:
    """Times hilbert_series(resolution_terms(ctx)): a resolution_terms call
    counts towards the table route only once its table reaches
    hilbert_series.  Tables are held by reference so ids are not reused."""

    def __init__(self):
        self.pending: dict[int, tuple] = {}

    def resolution_terms(self, tracer, args, result, elapsed):
        tracer.count("geometric.table_entries", sum(1 for _ in result.entries()))
        self.pending[id(result)] = (result, elapsed)

    def hilbert_series(self, tracer, args, result, elapsed):
        table = args[0]
        _, build = self.pending.pop(id(table), (None, None))
        if build is not None:
            tracer.count("geometric.table_route_s", build + elapsed)


def _cancellations(tracer, args, result, elapsed):
    tracer.count("resolutions.cancellations", len(args[2]))


def _draws(tracer, args, result, elapsed):
    rows, cols = args[1], args[2]
    tracer.count("kalman.draws", rows * cols)


def install(tracer: Tracer, bindings=BINDINGS) -> dict:
    """Patch every binding; return {binding key: the unwrapped original}.

    Raises BindingError naming the first binding that no longer resolves."""
    route = _TableRoute()
    observers = {
        "schur.lr_coefficient": _lr_nonzero,
        "bott.cohomology_of_summand": _bott_vanishing,
        "geometric.xi_exterior_decomposition": _xi_summands,
        "geometric.resolution_terms": route.resolution_terms,
        "geometric.hilbert_series": route.hilbert_series,
        "resolutions.mapping_cone": _cancellations,
        "kalman.SplitMix64.matrix": _draws,
    }
    originals = {}
    for b in bindings:
        owner, name = _resolve(b)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        originals[b.key] = original
        setattr(owner, name, tracer.wrap(b.span, original, observers.get(b.span), b.key))
    return originals


def _resolve(b: Binding):
    try:
        owner = importlib.import_module(b.module)
    except ImportError as exc:
        raise BindingError(f"binding {b.key}: cannot import {b.module}: {exc}") from exc
    *path, name = b.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise BindingError(f"binding {b.key}: {b.module} has no {part}")
    if not hasattr(owner, name):
        raise BindingError(f"binding {b.key}: {b.module}.{b.attr} does not exist")
    return owner, name


def unreached(binding_calls: dict, workload: str, bindings=BINDINGS) -> list:
    """Binding keys a workload must reach but whose summed call count is 0."""
    return [
        b.key
        for b in bindings
        if workload in b.workloads and not binding_calls.get(b.key)
    ]
