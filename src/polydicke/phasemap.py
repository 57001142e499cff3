"""Separatrices, transition orders, and coupling-space grid scans.

The coupling plane splits into a normal region and one monochromatic
collective region per mode.  Boundaries against the normal region are
closed-form: a bifurcation (second order) when the condensate involves the
ground level, a Maxwell set (first order) otherwise.  Boundaries between two
collective regions are Maxwell sets, where the two condensate energies are
equal; one condensate energy falls strictly with its coupling, so the set is
solved for that coupling in closed form over all sampled points of a curve.
An independent algebraic form of the same locus is evaluated alongside, as
one array expression over the same points, and the worst relative
disagreement |z - mu|/mu is recorded on the curve.  plane_boundaries lists
a scanned plane's separatrices in the axis units of its grid scan.  Grid
scans and observable sweeps are array evaluations of the same closed forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import (Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from .model import AtomicSystem, Pair, require_valid
from .symmetries import rwa_rescale
from . import observables, variational

def normal_boundary(system: AtomicSystem, pair: Pair) -> float:
    """Critical coupling where region S(pair) first touches the normal one.

    mu* = sqrt(omega_k Omega)/2 for a ground-level pair (bifurcation);
    mu* = sqrt(Omega) (sqrt(omega_j) + sqrt(omega_k))/2 otherwise (Maxwell
    set, where the condensate energy crosses zero).
    """
    require_valid(system)
    t = system.transition(pair)
    if t.j == 1:
        return math.sqrt(system.omega[t.k - 1] * t.Omega) / 2.0
    return (
        math.sqrt(t.Omega)
        * (math.sqrt(system.omega[t.j - 1]) + math.sqrt(system.omega[t.k - 1]))
        / 2.0
    )


def _zeta_boundary(system: AtomicSystem, pair_solve: Pair, pair_other: Pair,
                   mu_other) -> np.ndarray:
    """Algebraic collective-collective boundary at each mu_other > 0: an
    array of shape (2, len(mu_other)) holding the mu root of the + and of
    the - sign branch, NaN where a branch has no root."""
    ts = system.transition(pair_solve)
    to = system.transition(pair_other)
    w = system.omega
    dwo = w[to.k - 1] - w[to.j - 1]
    m2 = np.square(np.asarray(mu_other, dtype=float))
    levels = np.array([[w[ts.j - 1]], [w[ts.k - 1]]])
    zj, zk = (16.0 * m2 * m2 + dwo * dwo * to.Omega * to.Omega
              + 8.0 * m2 * to.Omega
              * (2.0 * levels - w[to.k - 1] - w[to.j - 1]))
    pref = ts.Omega / (8.0 * m2 * to.Omega)
    # a negative zeta has no root, so its NaN carries through; the cross
    # term is sqrt(zj) * sqrt(zk), since zj * zk underflows at tiny couplings
    with np.errstate(invalid="ignore"):
        cross = np.sqrt(zj) * np.sqrt(zk)
        val = pref * (0.5 * (zj + zk) + np.array([[1.0], [-1.0]]) * cross)
        return np.where(val > 0.0, np.sqrt(val / 4.0), np.nan)


@dataclass(frozen=True)
class SeparatrixCurve:
    """Sampled boundary curve between two regions in a coupling plane."""

    kind: str                      # "normal-collective" | "collective-collective"
    label_a: str
    label_b: str
    order: int
    solve_pair: Optional[Pair]
    fixed_pair: Optional[Pair]
    points: Tuple[Tuple[float, float], ...]   # (mu_solve, mu_fixed)
    zeta_max_discrepancy: Optional[float] = None
    message: str = ""

    def to_json_dict(self) -> dict:
        """The sidecar's curve record: its plane as the solve and fixed axes,
        regions, order and points; only a collective-collective curve
        carries zeta_max_discrepancy."""
        record = {
            "kind": self.kind,
            "axes": [f"{j}_{k}" for j, k in (self.solve_pair, self.fixed_pair)],
            "regions": [self.label_a, self.label_b],
            "order": self.order,
            "points": [list(p) for p in self.points],
        }
        if self.kind == "collective-collective":
            record["zeta_max_discrepancy"] = self.zeta_max_discrepancy
        return record


def collective_boundary(system: AtomicSystem, pair_a: Pair, pair_b: Pair,
                        fixed_values: Sequence[float],
                        solve_range: Tuple[float, float]) -> SeparatrixCurve:
    """Locus of equal condensate energies E_a(mu_a) = E_b(mu_b), solved for
    mu_a at each sampled mu_b in fixed_values, within (lo, hi) = solve_range.

    Where condensate a exists its energy omega_j - (4 mu^2 - B)^2/(16 Omega
    mu^2) falls strictly with mu, so for each sampled mu_b the equation has
    at most one root, mu_a = (s + sqrt(s^2 + B))/2 with s = sqrt(Omega
    (omega_j - E_b)), evaluated as one array expression over the samples.
    Samples without a finite positive root inside the solve range are
    skipped.  All such boundaries are Maxwell sets (order 1).  Returns an
    empty curve with a message when no sample roots.
    """
    require_valid(system)
    pair_a, pair_b = tuple(pair_a), tuple(pair_b)
    if pair_a == pair_b:
        raise ValueError("identical regions")
    lo, hi = solve_range
    t = system.transition(pair_a)
    fixed = np.asarray(fixed_values, dtype=float)
    target = variational.condensate(system, pair_b, fixed).energy
    b = (system.omega[t.k - 1] - system.omega[t.j - 1]) * t.Omega
    # an absent condensate b has energy +inf and one above omega_j has no
    # root: s is nan there.  hypot keeps s^2 from overflowing
    with np.errstate(invalid="ignore"):
        s = np.sqrt(t.Omega * (system.omega[t.j - 1] - target))
        mu_a = 0.5 * (s + np.hypot(s, math.sqrt(b)))
    keep = np.isfinite(mu_a) & (mu_a > 0.0) & (mu_a >= lo) & (mu_a <= hi)
    mu_a, mu_b = mu_a[keep], fixed[keep]
    points = tuple(zip(mu_a.tolist(), mu_b.tolist()))
    # per point, the matching algebraic root is the closer sign branch (the
    # other one lies outside the collective regime); record the worst
    # relative disagreement over the curve
    gap = np.fmin(*np.abs(_zeta_boundary(system, pair_a, pair_b, mu_b)
                          - mu_a)) / mu_a
    gap = gap[~np.isnan(gap)]
    worst_zeta = float(gap.max()) if gap.size else None
    message = "" if points else "no root: regions do not touch in the sweep range"
    return SeparatrixCurve(
        kind="collective-collective", label_a=variational.region_tag(pair_a),
        label_b=variational.region_tag(pair_b), order=1, solve_pair=pair_a,
        fixed_pair=pair_b, points=points, zeta_max_discrepancy=worst_zeta,
        message=message,
    )


def transition_order(label_a: str, label_b: str) -> int:
    """Order of the phase transition across the boundary of two regions.

    Second order (bifurcation) between the normal region and a ground-level
    condensate S(1,k); first order (Maxwell set) for every other boundary.
    """
    a, b = variational.region_pair(label_a), variational.region_pair(label_b)
    if a == b:
        raise ValueError("identical labels have no transition")
    if a is None or b is None:
        pair = b if a is None else a
        return 2 if pair[0] == 1 else 1
    return 1


def plane_boundaries(system: AtomicSystem,
                     axes: Sequence[Tuple[Pair, Tuple[float, float]]],
                     resolution: int, rwa: bool = False
                     ) -> Tuple[Dict[Pair, float], List[SeparatrixCurve]]:
    """Normal boundaries of the scanned pairs and the separatrices of each
    scanned plane, in the axis units of :func:`scan_grid` with the same axes
    and rwa flag (under rwa every boundary sits at doubled coupling).

    Returns (normal, curves): normal maps each axis pair to its
    :func:`normal_boundary`.  Each pair of axes, in axis order, spans a
    plane; curves holds, plane by plane, the normal-collective segments
    that cross it and its collective-collective curve, solved for the
    plane's first axis at max(resolution, 16) - 1 values of its second
    axis above that axis's normal boundary.  Every curve lists its points
    in the plane's axis order, with solve_pair and fixed_pair the plane's
    first and second axis.
    """
    scale = 0.5 if rwa else 1.0
    normal = {p: normal_boundary(system, p) / scale for p, _ in axes}
    curves: List[SeparatrixCurve] = []
    for (pa, (alo, ahi)), (pb, (blo, bhi)) in itertools.combinations(axes, 2):
        ma, mb = normal[pa], normal[pb]

        def segment(pair: Pair, points) -> SeparatrixCurve:
            label_a = variational.region_tag(None)
            label_b = variational.region_tag(pair)
            return SeparatrixCurve(
                kind="normal-collective", label_a=label_a, label_b=label_b,
                order=transition_order(label_a, label_b), solve_pair=pa,
                fixed_pair=pb, points=points)

        if alo <= ma <= ahi and blo < mb:
            curves.append(segment(pa, ((ma, blo), (ma, min(bhi, mb)))))
        if blo <= mb <= bhi and alo < ma:
            curves.append(segment(pb, ((alo, mb), (min(ahi, ma), mb))))
        if mb < bhi:
            fixed = np.linspace(max(blo, mb), bhi, max(resolution, 16))[1:]
            curve = collective_boundary(system, pa, pb, scale * fixed,
                                        (scale * alo, scale * ahi))
            if curve.points:
                curves.append(replace(curve, points=tuple(
                    (a / scale, b / scale) for a, b in curve.points)))
    return normal, curves


def _one_sided_derivative(f: Callable[[float], float], t0: float, sign: int,
                          order: int, eps: float) -> float:
    """Derivative at t0 from nodes t0 + sign*(eps, 2eps, 3eps), Richardson
    extrapolated over eps halvings (exact for quadratics before extrapolation).
    """

    def stencil(e: float) -> float:
        f1, f2, f3 = (f(t0 + sign * m * e) for m in (1, 2, 3))
        if order == 1:
            return sign * (-5.0 * f1 + 8.0 * f2 - 3.0 * f3) / (2.0 * e)
        return (f1 - 2.0 * f2 + f3) / (e * e)

    vals = [stencil(eps), stencil(eps / 2.0), stencil(eps / 4.0)]
    p = 2 if order == 1 else 1
    while len(vals) > 1:
        fac = 2.0 ** p
        vals = [(fac * vals[i + 1] - vals[i]) / (fac - 1.0)
                for i in range(len(vals) - 1)]
        p += 1
    return vals[0]


def ehrenfest_probe(system: AtomicSystem,
                    path: Callable[[float], Mapping[Pair, float]],
                    point: float) -> Optional[int]:
    """Observed transition order at a separatrix crossing on a coupling path.

    One-sided derivatives of the minimum energy along the path, from steps
    of 1e-2 and their halvings, are estimated on both sides of `point` and
    compared order by order; the first order at which they disagree by more
    than 1e-3 relative is returned, None if neither the first nor the second
    does.  The path must cross only the one separatrix within 3e-2 of the
    point.
    """
    require_valid(system)

    def energy(t: float) -> float:
        return variational.minimize(system.with_couplings(path(t))).energy

    for order in (1, 2):
        left = _one_sided_derivative(energy, point, -1, order, 1e-2)
        right = _one_sided_derivative(energy, point, +1, order, 1e-2)
        if abs(left - right) > 1e-3 * max(1.0, abs(left), abs(right)):
            return order
    return None


@dataclass(frozen=True)
class PhaseGrid:
    """Per-cell ground-state classification over a coupling-space grid.

    Cell (i1, ..., id) has couplings axis_values[m][i_m]; labels and energies
    are stored row-major with the last axis fastest, matching CSV row order.
    """

    axes: Tuple[Pair, ...]
    axis_values: Tuple[Tuple[float, ...], ...]
    labels: np.ndarray       # shape = resolutions, dtype=object (str tags)
    energies: np.ndarray     # same shape, float64

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.energies.shape

    def cell_couplings(self, index: Tuple[int, ...]) -> dict:
        return {p: self.axis_values[m][index[m]] for m, p in enumerate(self.axes)}

    def to_csv(self, header_lines: Sequence[str] = ()) -> str:
        """CSV text: one row per cell, columns mu_j_k ..., region, energy.

        Fields are float reprs and region tags, none of which needs CSV
        quoting, so rows are plain comma joins.  Each axis and the energy
        column are formatted by :func:`observables._float_reprs`, once per
        distinct value: a cell's energy is its winning condensate's, which
        depends on that condensate's coupling alone, so a grid of 1e4 cells
        holds only about 1e2 distinct energies.
        """
        cells = np.indices(self.shape).reshape(len(self.shape), -1)
        columns = [observables._float_reprs(values)[at].tolist()
                   for values, at in zip(self.axis_values, cells)]
        columns.append(self.labels.ravel().tolist())
        columns.append(observables._float_reprs(self.energies).ravel().tolist())
        header = [f"mu_{p[0]}_{p[1]}" for p in self.axes] + ["region", "energy"]
        lines = [f"# {line}" for line in header_lines] + [",".join(header)]
        lines.extend(map(",".join, zip(*columns)))
        return "\n".join(lines) + "\n"


def _validated_base(system: AtomicSystem,
                    columns: Mapping[Pair, Sequence[float]],
                    rwa: bool) -> AtomicSystem:
    """The system whose full-model closed forms a scan evaluates.

    columns holds each swept coupling's values.  Two validations cover every
    point: each swept coupling at its least admissible value (non-finite
    first), then at its largest.  Every coupling is halved when rwa is set;
    the swept ones are the caller's to halve.
    """
    edge = system.with_couplings({
        p: min(v, key=lambda m: (math.isfinite(m), m))
        for p, v in columns.items()
    })
    base = rwa_rescale(edge) if rwa else require_valid(edge)
    require_valid(system.with_couplings(
        {p: max(v) for p, v in columns.items()}))
    return base


def scan_grid(system: AtomicSystem,
              axes: Sequence[Tuple[Pair, Tuple[float, float]]],
              resolution: Union[int, Sequence[int]],
              rwa: bool = False) -> PhaseGrid:
    """Classify every grid cell by its variational ground-state region.

    axes lists up to three (pair, (lo, hi)) entries with distinct pairs;
    resolution is shared or per-axis.  Each cell holds the minimum of the
    candidate energies (normal, then the condensates in pair order, the
    first minimum winning as in :func:`variational.minimize`), evaluated as
    arrays over the whole grid with every coupling halved when rwa is set.
    """
    if not 1 <= len(axes) <= 3:
        raise ValueError("between 1 and 3 varying couplings are supported")
    pairs = [tuple(p) for p, _ in axes]
    if len(set(pairs)) != len(pairs):
        raise ValueError(f"repeated axis pair in {pairs}")
    res = ((resolution,) * len(axes) if isinstance(resolution, int)
           else tuple(resolution))
    if len(res) != len(axes) or any(r < 1 for r in res):
        raise ValueError(f"bad resolution {resolution!r} for {len(axes)} axes")
    # np.linspace warns on an infinite bound; a NaN one is left to the
    # coupling validation
    if any(math.isinf(b) for _, bounds in axes for b in bounds):
        raise ValueError(f"axis ranges need finite bounds, got "
                         f"{[bounds for _, bounds in axes]}")
    values = tuple(
        tuple(float(v) for v in np.linspace(lo, hi, r))
        for (_, (lo, hi)), r in zip(axes, res)
    )
    base = _validated_base(system, dict(zip(pairs, values)), rwa)
    scale = 0.5 if rwa else 1.0
    mesh = np.meshgrid(*(scale * np.array(v) for v in values), indexing="ij")
    mu = {base.transition(p).pair: m for p, m in zip(pairs, mesh)}
    best, energies = variational.minimize_array(base, mu, res)
    tags = np.array([variational.region_tag(p) for p in (None,) + base.pairs],
                    dtype=object)
    return PhaseGrid(axes=tuple(pairs), axis_values=values, labels=tags[best],
                     energies=energies)


def sweep_observables(system: AtomicSystem,
                      couplings: Mapping[Pair, Sequence[float]],
                      rwa: bool = False) -> List[List[str]]:
    """Observables of the variational ground state along a coupling sweep.

    couplings maps each swept pair to its values, one per point; the other
    couplings keep the system's.  Returns one
    :meth:`observables.ObservableSet.csv_row` per point, from one array
    evaluation over the sweep with every coupling halved when rwa is set,
    after the same two validations as :func:`scan_grid`.
    """
    base = _validated_base(system, couplings, rwa)
    scale = 0.5 if rwa else 1.0
    mu = {base.transition(p).pair: scale * np.array(v, dtype=float)
          for p, v in couplings.items()}
    return observables.sweep_rows(base, mu)
