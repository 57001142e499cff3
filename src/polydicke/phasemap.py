"""Separatrices, transition orders, and coupling-space grid scans.

The coupling plane splits into a normal region and one monochromatic
collective region per mode.  Boundaries against the normal region are
closed-form: a bifurcation (second order) when the condensate involves the
ground level, a Maxwell set (first order) otherwise.  Boundaries between two
collective regions are Maxwell sets located by bracketing bisection on the
energy equality, one array bisection over all sampled points of a curve; an
algebraic form of the same locus is evaluated alongside as a cross-check and
the worst disagreement is recorded on the curve.  Grid scans and observable
sweeps are array evaluations of the same closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .model import AtomicSystem, Pair, require_valid
from .symmetries import rwa_rescale
from . import observables, variational

BISECTION_TOL = 1e-10


@dataclass(frozen=True)
class RegionLabel:
    """Phase-region tag: the normal region or one collective region S(j,k)."""

    pair: Optional[Pair] = None

    def __str__(self) -> str:
        return variational.region_tag(self.pair)

    @classmethod
    def parse(cls, tag: str) -> "RegionLabel":
        if tag == "N":
            return cls(None)
        try:
            prefix, j, k = tag.split("_")
            if prefix != "S":
                raise ValueError
            return cls((int(j), int(k)))
        except ValueError:
            raise ValueError(f"not a region tag: {tag!r}") from None

    @property
    def is_normal(self) -> bool:
        return self.pair is None


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
                   mu_other: float) -> Tuple[Optional[float], Optional[float]]:
    """Algebraic collective-collective boundary: candidate mu values (+/-)."""
    ts = system.transition(pair_solve)
    to = system.transition(pair_other)
    if mu_other <= 0.0:
        return (None, None)
    dwo = system.omega[to.k - 1] - system.omega[to.j - 1]
    m2 = mu_other * mu_other

    def zeta(i_level: int) -> float:
        return (
            16.0 * m2 * m2
            + dwo * dwo * to.Omega * to.Omega
            + 8.0 * m2 * to.Omega
            * (2.0 * system.omega[i_level - 1]
               - system.omega[to.k - 1] - system.omega[to.j - 1])
        )

    zj, zk = zeta(ts.j), zeta(ts.k)
    if zj < 0.0 or zk < 0.0:
        return (None, None)
    pref = ts.Omega / (8.0 * m2 * to.Omega)
    roots = []
    for sign in (+1.0, -1.0):
        val = pref * (0.5 * (zj + zk) + sign * math.sqrt(zj * zk))
        roots.append(math.sqrt(val / 4.0) if val > 0.0 else None)
    return tuple(roots)


@dataclass(frozen=True)
class BoundarySweep:
    """Which coupling to solve for and where the other one is sampled."""

    fixed_values: Tuple[float, ...]
    solve_range: Tuple[float, float]
    scan_points: int = 64
    tol: float = BISECTION_TOL


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
        return {
            "kind": self.kind,
            "regions": [self.label_a, self.label_b],
            "order": self.order,
            "solve_pair": list(self.solve_pair) if self.solve_pair else None,
            "fixed_pair": list(self.fixed_pair) if self.fixed_pair else None,
            "points": [list(p) for p in self.points],
            "zeta_max_discrepancy": self.zeta_max_discrepancy,
            "message": self.message,
        }


def collective_boundary(system: AtomicSystem, pair_a: Pair, pair_b: Pair,
                        sweep: BoundarySweep) -> SeparatrixCurve:
    """Locus of equal condensate energies E_a(mu_a) = E_b(mu_b).

    For each sampled mu_b, mu_a is found by bracketing bisection inside the
    first cell of a coarse sign scan over the solve range; samples where
    both candidates never coexist with a sign change are skipped.  All
    samples are bisected together as arrays, one condensate call per step,
    each stopping once its bracket is at most tol wide (200 steps at most).
    All such boundaries are Maxwell sets (order 1).  Returns an empty curve
    with a message when no sample roots.
    """
    require_valid(system)
    pair_a, pair_b = tuple(pair_a), tuple(pair_b)
    if pair_a == pair_b:
        raise ValueError("identical regions")
    label_a = str(RegionLabel(pair_a))
    label_b = str(RegionLabel(pair_b))
    lo, hi = sweep.solve_range
    grid = np.linspace(lo, hi, sweep.scan_points)
    fixed = np.asarray(sweep.fixed_values, dtype=float)
    scan = variational.condensate(system, pair_a, grid).energy
    targets = variational.condensate(system, pair_b, fixed).energy
    # one row per sample; where a condensate is absent its energy is +inf,
    # so the row's differences are not finite and bracket nothing
    with np.errstate(invalid="ignore"):
        vals = scan - targets[:, np.newaxis]
    finite = np.isfinite(vals)
    # first scan cell whose ends both exist and bracket (or hit) the root
    hit = finite[:, :-1] & finite[:, 1:] & (
        (vals[:, :-1] == 0.0) | ((vals[:, :-1] < 0.0) != (vals[:, 1:] < 0.0)))
    rows = np.flatnonzero(hit.any(axis=1))
    cell = np.argmax(hit[rows], axis=1) if rows.size else rows
    target = targets[rows]
    lo_mu, hi_mu = grid[cell], grid[cell + 1]
    f_lo = vals[rows, cell]
    exact = f_lo == 0.0
    for _ in range(200):
        open_ = hi_mu - lo_mu > sweep.tol
        if not open_.any():
            break
        mid = 0.5 * (lo_mu + hi_mu)
        f_mid = variational.condensate(system, pair_a, mid).energy - target
        up = open_ & ((f_lo < 0.0) == (f_mid < 0.0))
        lo_mu = np.where(up, mid, lo_mu)
        f_lo = np.where(up, f_mid, f_lo)
        hi_mu = np.where(open_ & ~up, mid, hi_mu)
    roots = np.where(exact, grid[cell], 0.5 * (lo_mu + hi_mu))
    points = tuple(zip(roots.tolist(), fixed[rows].tolist()))
    # per point, the matching algebraic root is the closer sign branch
    # (the other one lies outside the collective regime); record the worst
    # per-point disagreement over the curve
    worst_zeta = None
    for root, mu_b in points:
        dists = [abs(z - root)
                 for z in _zeta_boundary(system, pair_a, pair_b, mu_b)
                 if z is not None]
        if dists:
            d = min(dists)
            worst_zeta = d if worst_zeta is None else max(worst_zeta, d)
    message = "" if points else "no root: regions do not touch in the sweep range"
    return SeparatrixCurve(
        kind="collective-collective", label_a=label_a, label_b=label_b,
        order=1, solve_pair=pair_a, fixed_pair=pair_b,
        points=points, zeta_max_discrepancy=worst_zeta, message=message,
    )


def transition_order(label_a: Union[RegionLabel, str],
                     label_b: Union[RegionLabel, str]) -> int:
    """Order of the phase transition across the boundary of two regions.

    Second order (bifurcation) between the normal region and a ground-level
    condensate S(1,k); first order (Maxwell set) for every other boundary.
    """
    a = RegionLabel.parse(label_a) if isinstance(label_a, str) else label_a
    b = RegionLabel.parse(label_b) if isinstance(label_b, str) else label_b
    if a == b:
        raise ValueError("identical labels have no transition")
    if a.is_normal or b.is_normal:
        pair = b.pair if a.is_normal else a.pair
        return 2 if pair[0] == 1 else 1
    return 1


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
                    point: float, max_order: int = 2, eps: float = 1e-2,
                    threshold: float = 1e-3) -> Optional[int]:
    """Observed transition order at a separatrix crossing on a coupling path.

    One-sided derivatives of the minimum energy along the path are estimated
    on both sides of `point` and compared order by order; the first order at
    which they disagree (relative threshold) is returned, None if none does
    up to max_order.  The path must cross only the one separatrix within
    3*eps of the point.
    """
    require_valid(system)

    def energy(t: float) -> float:
        return variational.minimize(system.with_couplings(path(t))).energy

    for order in range(1, max_order + 1):
        left = _one_sided_derivative(energy, point, -1, order, eps)
        right = _one_sided_derivative(energy, point, +1, order, eps)
        if abs(left - right) > threshold * max(1.0, abs(left), abs(right)):
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
        quoting, so rows are plain comma joins.
        """
        cells = np.indices(self.shape).reshape(len(self.shape), -1)
        columns = [
            np.array(list(map(repr, values)), dtype=object)[at].tolist()
            for values, at in zip(self.axis_values, cells)
        ]
        columns.append(self.labels.ravel().tolist())
        columns.append(list(map(repr, self.energies.ravel().tolist())))
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
    values = tuple(
        tuple(float(v) for v in np.linspace(lo, hi, r))
        for (_, (lo, hi)), r in zip(axes, res)
    )
    base = _validated_base(system, dict(zip(pairs, values)), rwa)
    scale = 0.5 if rwa else 1.0
    mesh = np.meshgrid(*(scale * np.array(v) for v in values), indexing="ij")
    mu = {base.transition(p).pair: m for p, m in zip(pairs, mesh)}
    best, energies = variational.minimize_array(base, mu, res)
    tags = np.array(["N"] + [str(RegionLabel(p)) for p in base.pairs],
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
