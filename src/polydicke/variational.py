"""Coherent-state variational energy surface and its closed-form minima.

The trial state is a product of one field coherent state per mode and a
number-conserving atomic coherent state.  After eliminating phases and field
radii at their stationary values, the per-particle surface depends only on
the matter radii rho_2..rho_n (rho_1 = 1 fixed).  Its competing minima are:

* the normal point rho = 0 with energy 0,
* for each transition (1,k): a finite condensate of levels 1 and k,
* for each transition (j,k) with j >= 2: a condensate of levels j and k
  reached in the limit rho_j -> infinity with fixed ratio eta = rho_k/rho_j.

The infinite branch is always represented by the reduced ratio variable eta,
never by large radii, so no overflow can occur.  Every candidate carries a
closed-form matter amplitude, per-particle field radius, energy and an
existence flag; the ground state is the existing candidate of least energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .model import AtomicSystem, Pair, require_count, require_valid

KIND_NORMAL = "normal"
KIND_LOW = "low"    # condensate pairing the ground level with level k
KIND_HIGH = "high"  # condensate of two excited levels (infinite-radius branch)


def region_tag(pair: Optional[Pair]) -> str:
    """Phase-region tag: 'N' for the normal region (no pair), 'S_j_k' for
    the collective region of pair (j, k)."""
    return "N" if pair is None else f"S_{pair[0]}_{pair[1]}"


@dataclass(frozen=True)
class FieldAmplitudes:
    """Per-transition field radius (per particle) and phase, keyed by (j,k)."""

    r: Mapping[Pair, float]
    theta: Mapping[Pair, float]


@dataclass(frozen=True)
class MatterAmplitudes:
    """Matter radii and phases for levels 2..n; level 1 has rho=1, phi=0."""

    rho: Mapping[int, float]
    phi: Mapping[int, float]

    @classmethod
    def from_vector(cls, rho: Sequence[float]) -> "MatterAmplitudes":
        """Radii for levels 2, 3, ... in order, with all phases zero."""
        return cls(rho={i + 2: float(v) for i, v in enumerate(rho)},
                   phi={i + 2: 0.0 for i in range(len(rho))})

    def rho_vector(self, n: int) -> np.ndarray:
        missing = [k for k in range(2, n + 1) if k not in self.rho]
        if missing:
            raise ValueError(f"matter radii missing for levels {missing}")
        return np.array([self.rho[k] for k in range(2, n + 1)], dtype=float)

    def phi_vector(self, n: int) -> np.ndarray:
        return np.array([self.phi.get(k, 0.0) for k in range(2, n + 1)])


@dataclass(frozen=True)
class VariationalCandidate:
    """One closed-form critical point of the reduced energy surface.

    For kind 'low' matter_amp is the radius rho_k of the condensed level;
    for kind 'high' it is the limiting ratio eta_k.  photon_amp is the
    per-particle field radius of the single active mode.  Candidates whose
    existence inequality fails carry exists=False and no numeric fields.
    """

    kind: str
    pair: Optional[Pair]
    matter_amp: Optional[float]
    photon_amp: Optional[float]
    energy: Optional[float]
    exists: bool

    @property
    def region(self) -> str:
        """Phase-diagram tag: 'N' or 'S_j_k'."""
        return region_tag(self.pair)


@dataclass(frozen=True)
class StateRecipe:
    """Parameters of the product variational ground state.

    levels are the occupied atomic levels; mixing is the relative amplitude
    of the upper level; field_amplitude is the coherent amplitude
    sqrt(N_a) * r_c of the single active mode (vacuum for the normal state).
    """

    levels: Tuple[int, ...]
    mixing: float
    field_pair: Optional[Pair]
    field_amplitude: float


def _rho_full(rho: np.ndarray) -> np.ndarray:
    return np.concatenate(([1.0], rho))


def _as_rho_vector(system: AtomicSystem, matter) -> np.ndarray:
    if isinstance(matter, MatterAmplitudes):
        rho = matter.rho_vector(system.n)
    else:
        rho = np.asarray(matter, dtype=float)
    if rho.shape != (system.n - 1,):
        raise ValueError(
            f"expected {system.n - 1} matter radii, got shape {rho.shape}"
        )
    if not np.all(np.isfinite(rho)):
        raise ValueError("matter radii must be finite; the infinite branch "
                         "is handled through the reduced ratio variables")
    return rho


def energy_surface_full(system: AtomicSystem, field: FieldAmplitudes,
                        matter: MatterAmplitudes) -> float:
    """Per-particle energy of the trial state at arbitrary amplitudes.

    Field radii are per particle, so the result is independent of N_a:
    E = sum Omega r^2 + sum omega_j rho_j^2 / (1+R0^2)
        - 4 sum mu r rho_j rho_k cos(theta) cos(phi_k - phi_j) / (1+R0^2).
    """
    require_valid(system)
    rho = _as_rho_vector(system, matter)
    pairs = system.pairs
    missing = [p for p in pairs if p not in field.r or p not in field.theta]
    if missing:
        raise ValueError(f"field amplitudes missing for transitions {missing}")
    rho_full = _rho_full(rho)
    phi_full = np.concatenate(([0.0], matter.phi_vector(system.n)))
    denom = 1.0 + float(rho @ rho)
    energy = float(np.dot(system.omega[1:], rho * rho)) / denom
    for p in pairs:
        t = system.transition(p)
        r = float(field.r[p])
        if r < 0:
            raise ValueError(f"field radius for {p} must be nonnegative")
        energy += t.Omega * r * r
        energy -= (
            4.0 * t.mu * r
            * rho_full[t.j - 1] * rho_full[t.k - 1]
            * math.cos(field.theta[p])
            * math.cos(phi_full[t.k - 1] - phi_full[t.j - 1])
            / denom
        )
    return energy


def photon_stationary_r(system: AtomicSystem,
                        matter: MatterAmplitudes) -> Dict[Pair, float]:
    """Stationary per-particle field radii at the optimal phases.

    r_jk = 2 mu_jk rho_j rho_k / (Omega_jk (1 + R0^2)); r^2 is the photon
    number per particle carried by that mode.
    """
    require_valid(system)
    rho = _as_rho_vector(system, matter)
    rho_full = _rho_full(rho)
    denom = 1.0 + float(rho @ rho)
    return {
        p: 2.0 * system.transition(p).mu
        * rho_full[p[0] - 1] * rho_full[p[1] - 1]
        / (system.transition(p).Omega * denom)
        for p in system.pairs
    }


def reduced_energy(system: AtomicSystem,
                   matter: Union[MatterAmplitudes, Sequence[float]]) -> float:
    """Per-particle energy after eliminating phases and field radii.

    E(rho) = sum omega_j rho_j^2/(1+R0^2)
             - 4 sum (mu^2/Omega) (rho_j rho_k / (1+R0^2))^2.
    Finite radii only; the infinite branch lives in the candidate list.
    """
    require_valid(system)
    rho = _as_rho_vector(system, matter)
    return _reduced_surface(system, rho)[0]


def gradient(system: AtomicSystem,
             matter: Union[MatterAmplitudes, Sequence[float]]) -> np.ndarray:
    """Exact derivatives d(reduced_energy)/d(rho_j) for j = 2..n.

    Matches central finite differences of :func:`reduced_energy`; the shared
    bracket vanishing at a point makes it a critical point.
    """
    require_valid(system)
    rho = _as_rho_vector(system, matter)
    return _reduced_surface(system, rho)[1]


def _reduced_surface(system: AtomicSystem,
                     rho: np.ndarray) -> Tuple[float, np.ndarray]:
    """:func:`reduced_energy` and :func:`gradient` at radii rho, unvalidated."""
    rho_full = _rho_full(rho)
    denom = 1.0 + float(rho @ rho)
    omega = np.asarray(system.omega[1:])
    diag = float(omega @ (rho * rho))
    energy = diag / denom
    bracket = omega - diag / denom
    cross_total = 0.0
    for t in system.transitions:
        if t.mu == 0.0:
            continue
        c = 4.0 * t.mu * t.mu / t.Omega
        pj, pk = rho_full[t.j - 1], rho_full[t.k - 1]
        energy -= c * (pj * pk / denom) ** 2
        cross_total += c * (pj * pk) ** 2
        if t.j >= 2:
            bracket[t.j - 2] -= c * pk * pk / denom
        bracket[t.k - 2] -= c * pj * pj / denom
    bracket = bracket + 2.0 * cross_total / denom ** 2
    return energy, 2.0 * rho * bracket / denom


class Condensate(NamedTuple):
    """Condensate fields; x, r and b_over_a mean something only where exists."""

    exists: np.ndarray
    x: np.ndarray
    r: np.ndarray
    energy: np.ndarray      # +inf where the condensate does not exist
    b_over_a: np.ndarray


def condensate(system: AtomicSystem, pair: Pair, mu=None) -> Condensate:
    """Closed-form condensate of transition `pair`, elementwise over mu.

    mu is a scalar or an array and defaults to the transition's own
    coupling.  With A = 4 mu^2 and B = (omega_k - omega_j) Omega the
    condensate exists iff mu > 0 and A >= B; its matter amplitude is
    x = sqrt((A - B)/(A + B)), its field radius 2 mu x / (Omega (1 + x^2))
    and its energy omega_j - (A - B)^2 / (16 Omega mu^2).  Squares are
    products, never pow, so that scalar and array inputs round alike.
    """
    t = system.transition(pair)
    mu = np.asarray(t.mu if mu is None else mu, dtype=float)
    a = 4.0 * mu * mu
    b = (system.omega[t.k - 1] - system.omega[t.j - 1]) * t.Omega
    exists = (mu > 0.0) & (a >= b)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = a - b
        x = np.sqrt(d / (a + b))
        r = 2.0 * mu * x / (t.Omega * (1.0 + x * x))
        energy = system.omega[t.j - 1] - d * d / (16.0 * t.Omega * mu * mu)
        return Condensate(exists, x, r, np.where(exists, energy, np.inf), b / a)


def candidates(system: AtomicSystem) -> list[VariationalCandidate]:
    """All closed-form minimum candidates: the normal point plus one
    :func:`condensate` per mode, in the order normal, then pairs ascending."""
    require_valid(system)
    out = [VariationalCandidate(kind=KIND_NORMAL, pair=None, matter_amp=None,
                                photon_amp=0.0, energy=0.0, exists=True)]
    for p in system.pairs:
        c = condensate(system, p)
        fields = ((float(c.x), float(c.r), float(c.energy)) if c.exists
                  else (None, None, None))
        out.append(VariationalCandidate(KIND_LOW if p[0] == 1 else KIND_HIGH,
                                        p, *fields, exists=bool(c.exists)))
    return out


def minimize(system: AtomicSystem) -> VariationalCandidate:
    """Existing candidate of least energy.

    Ties (which occur exactly on separatrices) resolve to the first in
    candidate order: normal, then pairs ascending, which puts every ground
    level pair (1,k) before the excited ones.
    """
    return min((c for c in candidates(system) if c.exists),
               key=lambda c: c.energy)


def minimize_array(system: AtomicSystem, mu: Mapping[Pair, np.ndarray],
                   shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`minimize` elementwise over arrays of couplings.

    mu maps pairs to couplings broadcastable to shape; the other pairs keep
    the system's.  Returns the index of the least candidate in
    :func:`candidates` order (0 the normal point, m the m-th pair) and its
    energy, ties going to the first candidate as in :func:`minimize`.
    """
    stack = np.stack([np.zeros(shape)] + [
        np.broadcast_to(condensate(system, p, mu.get(p)).energy, shape)
        for p in system.pairs
    ])
    best = np.argmin(stack, axis=0)
    return best, np.take_along_axis(stack, best[np.newaxis], axis=0)[0]


def __getattr__(name: str):
    # Nothing here calls scipy.optimize.minimize, but the benchmark's tracer
    # (bench/tracing.py) wraps it under this name.  Resolving it on first
    # access keeps the name without importing scipy.optimize (about 17 MB
    # and a tenth of a second) in every process that loads the package.
    if name == "_scipy_minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class NumericMinimum:
    matter: MatterAmplitudes
    energy: float


# a start stops within a few dozen iterations (at most 29 over 8,000 ops of
# the benchmark's mix); one still moving after this many has not stopped
_SIMPLEX_ITERATIONS = 1_000
_SIMPLEX_STEP_TOL = 1e-14
# largest rho_cap at which _reduced_surface, which forms fourth powers of
# the radii, stays finite
_RHO_CAP_MAX = 1e75


def minimize_numeric(system: AtomicSystem, starts: int = 2,
                     rho_cap: float = 1e4, seed: int = 0) -> NumericMinimum:
    """Multi-start minimization of the reduced surface on the simplex.

    Independent numerical check of the closed forms: it reads only omega,
    Omega and mu, never the candidates.  In the variables x_1 = 1/(1+R0^2)
    and x_j = rho_j^2/(1+R0^2) for j >= 2, which lie on the probability
    simplex, the reduced surface is the quadratic
    E(x) = omega . x - sum (4 mu^2/Omega) x_j x_k.  The infinite-radius
    branch is the face x_1 = 0, at a finite distance, so every minimum is a
    point of a compact set.

    All starts run together as one array of n columns, with no call into
    scipy.optimize.  Each iteration takes a projected-gradient step of size
    1/L, L the spectral norm of the Hessian, which may change the face of
    the simplex an iterate lies in, and then an active-set step within that
    face: straight towards the face's minimum where the Hessian reduced to
    the face is positive definite, stopping on the face's boundary if the
    minimum lies beyond it, and otherwise downhill along a direction of
    least curvature to the boundary.  One batched eigendecomposition gives
    these for all 2^n - 1 faces.  A start stops once an iteration moves it
    by less than 1e-14.  The starts are a deterministic structured set
    (origin, one moderate and one far start per level, far rays for every
    level pair) plus `starts` draws seeded by `seed`, laid out in
    u = (2/pi) atan(rho) on [0, (2/pi) atan(rho_cap)] and mapped to x.

    The least start is mapped back as rho_j = sqrt(x_j/x_1), with x_1
    floored at max_j x_j / rho_cap^2: no radius exceeds rho_cap, and a
    minimum on the infinite-radius branch is reported at radius rho_cap,
    where its energy is exact to O(1/rho_cap^2).  The energy returned is
    :func:`reduced_energy` at those radii.

    Raises ValueError unless starts is an integer >= 1 and rho_cap lies in
    (0, 1e75], and RuntimeError if no start stops within the iteration cap.
    """
    require_valid(system)
    starts = require_count("starts", starts)
    if not 0.0 < rho_cap <= _RHO_CAP_MAX:
        raise ValueError(
            f"rho_cap must lie in (0, {_RHO_CAP_MAX:g}], got {rho_cap!r}")
    n = system.n
    omega = np.asarray(system.omega, dtype=float)
    hess = np.zeros((n, n))
    for t in system.transitions:
        hess[t.j - 1, t.k - 1] = hess[t.k - 1, t.j - 1] = (
            -4.0 * t.mu * t.mu / t.Omega)
    lipschitz = float(np.max(np.abs(np.linalg.eigvalsh(hess))))
    step = 1.0 / lipschitz if lipschitz > 0.0 else 1.0

    face, definite, bend = _faces(hess, omega)
    bits = 1 << np.arange(n)
    x = _starts(n - 1, starts, rho_cap, seed)
    done = np.zeros(len(x), dtype=bool)
    for _ in range(_SIMPLEX_ITERATIONS):
        y = _simplex_projection(x - step * (omega + x @ hess))
        support = (y > 0.0) @ bits
        y = _face_step(y, face[support], definite[support], bend[support],
                       omega + y @ hess, hess)
        moved = np.max(np.abs(y - x), axis=1)
        x = np.where(done[:, np.newaxis], x, y)
        done |= moved < _SIMPLEX_STEP_TOL
        if done.all():
            break
    energies = x @ omega + 0.5 * np.sum((x @ hess) * x, axis=1)
    best = x[int(np.argmin(energies))]
    if not done.any():
        raise RuntimeError(
            f"no start stopped within {_SIMPLEX_ITERATIONS} iterations "
            f"(best simplex energy {energies.min()})"
        )
    top = best[1:].max()
    if top > best[0] * rho_cap * rho_cap:   # x_1 below its floor
        rho = rho_cap * np.sqrt(best[1:] / top)
    else:
        rho = np.minimum(np.sqrt(best[1:] / best[0]), rho_cap)
    return NumericMinimum(matter=MatterAmplitudes.from_vector(rho),
                          energy=_reduced_surface(system, rho)[0])


def _starts(nv: int, random: int, rho_cap: float, seed: int) -> np.ndarray:
    """Start points on the simplex, one row per start: the structured set,
    then `random` seeded draws, uniform in u = (2/pi) atan(rho) below
    rho_cap, each mapped to (1, rho^2) / (1 + R0^2)."""
    u_cap = 2.0 / math.pi * math.atan(rho_cap)
    rows = [np.full(nv, 0.15)]
    for i in range(nv):
        s = np.full(nv, 0.10)
        s[i] = 0.55
        rows.append(s)
        s = np.full(nv, 0.02)
        s[i] = 0.97 * u_cap
        rows.append(s)
    for i in range(nv):
        for j in range(i + 1, nv):
            s = np.full(nv, 0.05)
            s[i] = 0.97 * u_cap
            s[j] = 0.95 * u_cap
            rows.append(s)
    rng = np.random.default_rng(seed)
    rows.extend(rng.uniform(0.0, u_cap, nv) for _ in range(random))
    rho = np.tan(0.5 * math.pi * np.array(rows))
    sq = np.concatenate((np.ones((len(rho), 1)), rho * rho), axis=1)
    return sq / sq.sum(axis=1, keepdims=True)


def _simplex_projection(y: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex, by
    sorting (Duchi, Shalev-Shwartz, Singer and Chandra, ICML 2008)."""
    desc = -np.sort(-y, axis=1)
    excess = np.cumsum(desc, axis=1) - 1.0
    support = np.sum(desc * np.arange(1, y.shape[1] + 1) > excess, axis=1)
    tau = excess[np.arange(len(y)), support - 1] / support
    return np.maximum(y - tau[:, np.newaxis], 0.0)


def _face_step(x: np.ndarray, target: np.ndarray, definite: np.ndarray,
               bend: np.ndarray, grad: np.ndarray,
               hess: np.ndarray) -> np.ndarray:
    """One active-set step of each row within the face it lies in.

    Where the face's reduced Hessian is positive definite, the row moves
    straight towards the face's minimum `target`, reaching it or stopping
    on the face's boundary.  Elsewhere it moves along the least-curvature
    direction `bend`, turned downhill, to the least value of the quadratic
    on that ray, which for a flat or concave ray lies on the face's
    boundary.  Neither step raises the energy, and a step that stops on the
    boundary leaves the blocking level at exactly zero.
    """
    rows = np.arange(len(x))
    d = np.where(definite[:, np.newaxis], target - x, bend)
    slope = np.sum(grad * d, axis=1)
    d[~definite & (slope > 0.0)] *= -1.0
    slope = -np.abs(slope)
    ratio = np.divide(x, -d, out=np.full_like(x, np.inf), where=d < 0.0)
    block = np.argmin(ratio, axis=1)
    t_max = ratio[rows, block]
    curve = np.sum((d @ hess) * d, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(curve > 0.0, np.minimum(-slope / curve, t_max), t_max)
        downhill = t * (slope + 0.5 * curve * t) < 0.0
    t = np.where(definite, np.minimum(t_max, 1.0), np.where(downhill, t, 0.0))
    y = x + t[:, np.newaxis] * d
    y[rows, block] = np.where(t >= t_max, 0.0, y[rows, block])
    y = np.where((definite & (t_max >= 1.0))[:, np.newaxis], target, y)
    return np.maximum(y, 0.0)


def _faces(hess: np.ndarray,
           omega: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quadratic omega . x + x hess x / 2 on every face of the simplex;
    row b belongs to the face of the levels in bitmask b (row 0, the empty
    face, is never used).

    On face F, with P the orthogonal projector onto its tangent space (zero
    sum, zero off F), the Hessian reduced to the face is P hess P.  Returns
    the face's stationary point, whether the reduced Hessian is positive
    definite (then that point is the minimum over the face's affine hull),
    and a unit tangent direction of least curvature, used where it is not.
    """
    n = len(omega)
    free = ((np.arange(1 << n)[:, np.newaxis] >> np.arange(n)) & 1) * 1.0
    centre = free / np.maximum(free.sum(axis=1), 1.0)[:, np.newaxis]
    proj = (np.eye(n) * free[:, np.newaxis, :]
            - centre[:, :, np.newaxis] * free[:, np.newaxis, :])
    scale = 1.0 + np.max(np.abs(hess))
    w, v = np.linalg.eigh(proj @ hess @ proj + scale * (np.eye(n) - proj))
    definite = w[:, 0] > 1e-12 * scale
    pull = np.einsum("bij,bj->bi", proj, omega + centre @ hess)
    coef = (np.einsum("bji,bj->bi", v, pull)
            / np.where(definite[:, np.newaxis], w, 1.0))
    face = (centre - np.einsum("bij,bj->bi", v, coef)) * free
    return face, definite, v[:, :, 0]


def variational_state_params(system: AtomicSystem,
                             candidate: VariationalCandidate) -> StateRecipe:
    """State parameters of an existing candidate.

    The matter part spreads atom amplitude over the candidate's level pair
    with relative weight `mixing`; the field part is a coherent state of
    amplitude sqrt(N_a) * r_c on the active mode, vacuum elsewhere.
    """
    if not candidate.exists:
        raise ValueError("candidate does not exist at these couplings")
    if candidate.kind == KIND_NORMAL:
        return StateRecipe(levels=(1,), mixing=0.0, field_pair=None,
                           field_amplitude=0.0)
    j, k = candidate.pair
    levels = (1, k) if candidate.kind == KIND_LOW else (j, k)
    return StateRecipe(
        levels=levels,
        mixing=candidate.matter_amp,
        field_pair=candidate.pair,
        field_amplitude=math.sqrt(system.atom_count) * candidate.photon_amp,
    )
