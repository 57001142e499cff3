"""Coherent-state variational energy surface and its closed-form minima.

The trial state is a product of one field coherent state per mode and a
number-conserving atomic coherent state.  After eliminating phases and field
radii at their stationary values, the per-particle surface depends only on
the matter radii rho_2..rho_n (rho_1 = 1 fixed), through the point
x = (1, rho^2)/(1 + R0^2) of the probability simplex, where it is the
quadratic omega . x + x . H x / 2 with H_jk = -4 mu_jk^2/Omega_jk per mode.
Its competing minima are:

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


def region_pair(tag: str) -> Optional[Pair]:
    """Inverse of :func:`region_tag`: None for 'N', (j, k) for 'S_j_k';
    a ValueError for anything else."""
    if tag == "N":
        return None
    try:
        prefix, j, k = tag.split("_")
        if prefix != "S":
            raise ValueError
        return (int(j), int(k))
    except ValueError:
        raise ValueError(f"not a region tag: {tag!r}") from None


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


def _simplex_quadratic(system: AtomicSystem) -> Tuple[np.ndarray, np.ndarray]:
    """The reduced surface omega . x + x . hess x / 2 on the simplex: the
    level energies omega and the symmetric hess, with
    hess[j-1, k-1] = -4 mu^2/Omega for each mode (j, k) and zero elsewhere."""
    hess = np.zeros((system.n, system.n))
    for t in system.transitions:
        hess[t.j - 1, t.k - 1] = hess[t.k - 1, t.j - 1] = (
            -4.0 * t.mu * t.mu / t.Omega)
    return np.asarray(system.omega, dtype=float), hess


def _modes(system: AtomicSystem) -> Tuple[np.ndarray, ...]:
    """The modes in pair order as arrays: 0-based levels j < k, Omega, mu.

    Apart from :func:`_simplex_quadratic` because the numeric oracle needs
    none of them: building them cost it about 14 us, 2 % of an oracle op
    (one thread of a 2-core x86-64 host)."""
    modes = np.array(sorted((t.j - 1, t.k - 1, t.Omega, t.mu)
                            for t in system.transitions)).reshape(-1, 4)
    return modes[:, 0].astype(int), modes[:, 1].astype(int), *modes[:, 2:].T


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

    Field radii are per particle, so the result is independent of N_a.
    With u = (1, rho_2, ..., rho_n)/sqrt(1 + R0^2) and phi_1 = 0,
    E = sum Omega r^2 + sum omega_j u_j^2
        - 4 sum mu r u_j u_k cos(theta) cos(phi_k - phi_j).
    """
    require_valid(system)
    rho = _as_rho_vector(system, matter)
    pairs = system.pairs
    missing = [p for p in pairs if p not in field.r or p not in field.theta]
    if missing:
        raise ValueError(f"field amplitudes missing for transitions {missing}")
    r = np.array([field.r[p] for p in pairs], dtype=float)
    if np.any(r < 0):
        raise ValueError(f"field radius for {pairs[np.argmax(r < 0)]} "
                         f"must be nonnegative")
    theta = np.array([field.theta[p] for p in pairs], dtype=float)
    j, k, Omega, mu = _modes(system)
    u = np.concatenate(([1.0], rho)) / math.sqrt(1.0 + rho @ rho)
    phi = np.concatenate(([0.0], matter.phi_vector(system.n)))
    return float(
        np.dot(system.omega, u * u) + Omega @ (r * r)
        - 4.0 * np.sum(mu * r * u[j] * u[k] * np.cos(theta)
                       * np.cos(phi[k] - phi[j])))


def photon_stationary_r(system: AtomicSystem,
                        matter: MatterAmplitudes) -> Dict[Pair, float]:
    """Stationary per-particle field radii at the optimal phases.

    r_jk = 2 mu_jk u_j u_k / Omega_jk with u = (1, rho)/sqrt(1 + R0^2);
    r^2 is the photon number per particle carried by that mode.
    """
    require_valid(system)
    rho = _as_rho_vector(system, matter)
    j, k, Omega, mu = _modes(system)
    u = np.concatenate(([1.0], rho)) / math.sqrt(1.0 + rho @ rho)
    return dict(zip(system.pairs, 2.0 * mu * u[j] * u[k] / Omega))


def reduced_energy(system: AtomicSystem,
                   matter: Union[MatterAmplitudes, Sequence[float]]) -> float:
    """Per-particle energy after eliminating phases and field radii.

    E(rho) = sum omega_j x_j - 4 sum (mu^2/Omega) x_j x_k at the simplex
    point x = (1, rho^2)/(1 + R0^2).  Finite radii only; the infinite
    branch lives in the candidate list.
    """
    require_valid(system)
    rho = _as_rho_vector(system, matter)
    return _reduced_surface(*_simplex_quadratic(system), rho)[0]


def gradient(system: AtomicSystem,
             matter: Union[MatterAmplitudes, Sequence[float]]) -> np.ndarray:
    """Exact derivatives d(reduced_energy)/d(rho_j) for j = 2..n.

    Matches central finite differences of :func:`reduced_energy`; the shared
    bracket vanishing at a point makes it a critical point.
    """
    require_valid(system)
    rho = _as_rho_vector(system, matter)
    return _reduced_surface(*_simplex_quadratic(system), rho)[1]


def _reduced_surface(omega: np.ndarray, hess: np.ndarray,
                     rho: np.ndarray) -> Tuple[float, np.ndarray]:
    """:func:`reduced_energy` and :func:`gradient` at radii rho, unvalidated:
    E = omega . x + x . hess x / 2 and, with g = omega + hess x,
    dE/drho_j = 2 rho_j (g_j - x . g)/(1 + R0^2)."""
    denom = 1.0 + rho @ rho
    x = np.concatenate(([1.0], rho * rho)) / denom
    hx = hess @ x
    g = omega + hx
    return float(x @ (omega + 0.5 * hx)), 2.0 * rho * (g[1:] - x @ g) / denom


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
# largest radius the oracle reports; the infinite-radius branch sits there
_RHO_CAP = 1e4


def minimize_numeric(system: AtomicSystem, starts: int = 2,
                     seed: int = 0) -> NumericMinimum:
    """Multi-start minimization of the reduced surface on the simplex.

    Independent numerical check of the closed forms: it reads only omega,
    Omega and mu, never the candidates, as the simplex quadratic of
    :func:`reduced_energy`.  The infinite-radius branch is the face x_1 = 0,
    at a finite distance, so every minimum is a point of a compact set.

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
    u = (2/pi) atan(rho) on [0, (2/pi) atan(1e4)] and mapped to x.

    The least start is mapped back as rho_j = sqrt(x_j/x_1), with x_1
    floored at max_j x_j / 1e8: no radius exceeds the cap of 1e4, and a
    minimum on the infinite-radius branch is reported at that radius,
    where its energy is exact to O(1e-8).  The energy returned is
    :func:`reduced_energy` at those radii.

    Raises ValueError unless starts is an integer >= 1, and RuntimeError if
    no start stops within the iteration cap.
    """
    require_valid(system)
    starts = require_count("starts", starts)
    n = system.n
    omega, hess = _simplex_quadratic(system)
    lipschitz = float(np.max(np.abs(np.linalg.eigvalsh(hess))))
    step = 1.0 / lipschitz if lipschitz > 0.0 else 1.0

    face, definite, bend = _faces(hess, omega)
    bits = 1 << np.arange(n)
    x = _starts(n - 1, starts, seed)
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
    if top > best[0] * _RHO_CAP * _RHO_CAP:   # x_1 below its floor
        rho = _RHO_CAP * np.sqrt(best[1:] / top)
    else:
        rho = np.minimum(np.sqrt(best[1:] / best[0]), _RHO_CAP)
    return NumericMinimum(matter=MatterAmplitudes.from_vector(rho),
                          energy=_reduced_surface(omega, hess, rho)[0])


def _starts(nv: int, random: int, seed: int) -> np.ndarray:
    """Start points on the simplex, one row per start: the structured set,
    then `random` seeded draws, uniform in u = (2/pi) atan(rho) below
    _RHO_CAP, each mapped to (1, rho^2) / (1 + R0^2)."""
    u_cap = 2.0 / math.pi * math.atan(_RHO_CAP)
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
