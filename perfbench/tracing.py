"""In-memory span tracing around the package's public functions.

The traced run replaces each traced public function, wherever a module of
``halfspace_qed`` binds it (for example ``halfspace_qed.kernels.
halfline_oscillatory_integral``), by a wrapper that records one span: layer,
start, end, parent span, integrand nodes and whether it raised
``QuadratureError``.  Spans stay in memory; ``aggregate`` turns the spans of
one pass into per-layer totals and ``reset`` drops them.  A traced name that
no longer exists in the package is reported as absent instead of failing.

The radial layer calls the same oscillatory engine as the k_z profiles.  Its
calls are reported apart as ``spectral.halfline_radial``: a half-line call is
the radial one when it encloses other engine spans (its integrand runs the
profiles) or is made directly by ``kernels._radial_assemble`` (the analytic
free-space profile at z = z' has no inner spans).  The caller is matched by
its code object, looked up like a traced layer: if the package renames or
merges that function, it is reported as absent, like a vanished layer.
"""
from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from halfspace_qed.spectral import QuadratureError

__all__ = ["QUADRATURE_LAYERS", "ANALYTIC_LAYERS", "ROOT_LAYER", "LayerStats", "Tracer"]

HALFLINE = "spectral.halfline_oscillatory_integral"
RADIAL = "spectral.halfline_radial"
# Marks the radial half-line calls; it has no metrics of its own.
RADIAL_CALLER = "kernels._radial_assemble"
_ENGINE = frozenset({
    HALFLINE,
    "spectral.cut_segment_integral",
    "spectral.damped_radial_transform",
    "spectral.decaying_halfline_integral",
})

# Layers reported with calls, busy_s, self_s, nodes and failed.
QUADRATURE_LAYERS = (
    HALFLINE,
    RADIAL,
    "spectral.cut_segment_integral",
    "spectral.damped_radial_transform",
    "spectral.decaying_halfline_integral",
    "kernels.kz_spectral_kernel",
    "kernels.assemble_kernel_result",
    "energy.second_order_shift",
    "energy.double_commutator_cnumber",
)
# Closed forms, mode data and reports: calls, busy_s and self_s.
ANALYTIC_LAYERS = (
    "kernels.residue_closed_form",
    "kernels.gauge_difference_closed_form",
    "kernels.poisson_jump_residual",
    "kernels.fd_curl_first_index",
    "fresnel.fresnel_coefficients",
    "fresnel.cancellation_residual",
    "modes.carniglia_mandel_mode",
    "modes.polarization_vector",
    "modes.surface_charge_mode",
    "modes.sigma_mode_coefficient",
    "modes.chi_mode_coefficient",
    "greens.grad_grad_green_tensor",
    "greens.image_potential_ves",
    "medium.refracted_kz",
    "medium.evanescent_threshold",
    "medium.vacuum_kz_from_kzd",
    "medium.mode_frequency",
    "report.make_check",
    "report.to_json",
)
# The benchmark's own span around each item: its self time is the
# benchmark's glue, so the self times of all layers add up to the traced
# item time.
ROOT_LAYER = "bench.item"


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0  # time inside the layer, nested calls of itself counted once
    self_s: float = 0.0  # busy time minus the time of child spans
    nodes: int = 0  # integrand nodes the result reports, else those of the engine calls below
    failed: int = 0  # calls that raised QuadratureError

    def add(self, other: "LayerStats") -> None:
        self.calls += other.calls
        self.busy_s += other.busy_s
        self.self_s += other.self_s
        self.nodes += other.nodes
        self.failed += other.failed


class Tracer:
    """Records spans of the traced layers while installed."""

    def __init__(self) -> None:
        self.layers = (ROOT_LAYER,) + QUADRATURE_LAYERS + ANALYTIC_LAYERS
        self.absent: list[str] = []
        self._radial_code = None
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop the recorded spans (none may be open)."""
        self.layer: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.nodes: list[int | None] = []
        self.failed: list[bool] = []
        self.radial_call: list[bool] = []
        self._stack: list[int] = []

    def open(self, layer: int, radial_call: bool = False) -> int:
        idx = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.nodes.append(None)
        self.failed.append(False)
        self.radial_call.append(radial_call)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, nodes: int | None = None, failed: bool = False) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self.nodes[idx] = nodes
        self.failed[idx] = failed

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.layers.index(name))
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, layer: int, fn):
        tracer = self
        radial_code = self._radial_code if self.layers[layer] == HALFLINE else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            radial = radial_code is not None and sys._getframe(1).f_code is radial_code
            idx = tracer.open(layer, radial)
            nodes, failed = None, False
            try:
                result = fn(*args, **kwargs)
                nodes = getattr(result, "nodes_used", None)
                return result
            except QuadratureError:
                failed = True
                raise
            finally:
                tracer.close(idx, nodes, failed)

        return traced

    def _lookup(self, name: str):
        """The package function ``module.func``; None, noted as absent, if gone."""
        module_name, func_name = name.rsplit(".", 1)
        try:
            module = importlib.import_module(f"halfspace_qed.{module_name}")
        except ImportError:
            module = None
        fn = getattr(module, func_name, None)
        if not callable(fn):
            self.absent.append(name)
            return None
        return fn

    def install(self) -> None:
        """Wrap every binding of each traced function in the package's modules."""
        package = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "halfspace_qed" or name.startswith("halfspace_qed."))]
        caller = self._lookup(RADIAL_CALLER)
        self._radial_code = getattr(caller, "__code__", None)
        for layer, name in enumerate(self.layers):
            if name in (ROOT_LAYER, RADIAL):
                continue
            fn = self._lookup(name)
            if fn is None:
                continue
            wrapper = self._wrap(layer, fn)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _classified(self) -> list[str]:
        """Layer name of every span, with the radial half-line calls relabelled."""
        names = [self.layers[i] for i in self.layer]
        encloses_engine = [False] * len(names)
        for i, p in enumerate(self.parent):
            if p >= 0 and names[i] in _ENGINE:
                encloses_engine[p] = True
        return [
            RADIAL if name == HALFLINE and (self.radial_call[i] or encloses_engine[i]) else name
            for i, name in enumerate(names)
        ]

    def aggregate(self) -> dict[str, LayerStats]:
        """Per-layer totals of the recorded spans."""
        count = len(self.layer)
        names = self._classified()
        child_time = [0.0] * count
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        # Children come after their parent, so a reverse sweep has every
        # subtree's engine nodes before the parent needs them.
        subtree = [0] * count
        nodes = [0] * count
        for i in reversed(range(count)):
            reported = self.nodes[i]
            if reported is not None and self.layers[self.layer[i]] in _ENGINE:
                subtree[i] += reported
            nodes[i] = reported if reported is not None else subtree[i]
            if self.parent[i] >= 0:
                subtree[self.parent[i]] += subtree[i]
        stats = {name: LayerStats() for name in self.layers}
        for i in range(count):
            s = stats[names[i]]
            duration = self.end[i] - self.start[i]
            s.calls += 1
            s.self_s += duration - child_time[i]
            s.nodes += nodes[i]
            s.failed += self.failed[i]
            p = self.parent[i]
            while p >= 0 and names[p] != names[i]:
                p = self.parent[p]
            if p < 0:
                s.busy_s += duration
        return stats

    def spans(self) -> list[tuple[str, int, float, float, int | None]]:
        """The recorded spans as (layer, parent, start, end, nodes), parents first."""
        names = self._classified()
        return [
            (names[i], self.parent[i], self.start[i], self.end[i], self.nodes[i])
            for i in range(len(names))
        ]
