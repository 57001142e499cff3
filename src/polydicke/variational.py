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
from scipy.optimize import minimize as _scipy_minimize

from .model import AtomicSystem, Pair, require_valid

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
    return _reduced_energy_raw(system, rho)


def _reduced_energy_raw(system: AtomicSystem, rho: np.ndarray) -> float:
    rho_full = _rho_full(rho)
    denom = 1.0 + float(rho @ rho)
    energy = float(np.dot(system.omega[1:], rho * rho)) / denom
    for t in system.transitions:
        if t.mu == 0.0:
            continue
        energy -= (4.0 * t.mu * t.mu / t.Omega) * (
            rho_full[t.j - 1] * rho_full[t.k - 1] / denom
        ) ** 2
    return energy


def gradient(system: AtomicSystem,
             matter: Union[MatterAmplitudes, Sequence[float]]) -> np.ndarray:
    """Exact derivatives d(reduced_energy)/d(rho_j) for j = 2..n.

    Matches central finite differences of :func:`reduced_energy`; the shared
    bracket vanishing at a point makes it a critical point.
    """
    require_valid(system)
    rho = _as_rho_vector(system, matter)
    return _gradient_raw(system, rho)


def _gradient_raw(system: AtomicSystem, rho: np.ndarray) -> np.ndarray:
    rho_full = _rho_full(rho)
    denom = 1.0 + float(rho @ rho)
    omega = np.asarray(system.omega[1:])
    diag = float(omega @ (rho * rho))
    bracket = omega - diag / denom
    cross_total = 0.0
    for t in system.transitions:
        if t.mu == 0.0:
            continue
        c = 4.0 * t.mu * t.mu / t.Omega
        pj, pk = rho_full[t.j - 1], rho_full[t.k - 1]
        cross_total += c * (pj * pk) ** 2
        if t.j >= 2:
            bracket[t.j - 2] -= c * pk * pk / denom
        bracket[t.k - 2] -= c * pj * pj / denom
    bracket = bracket + 2.0 * cross_total / denom ** 2
    return 2.0 * rho * bracket / denom


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


@dataclass(frozen=True)
class NumericMinimum:
    matter: MatterAmplitudes
    energy: float


def minimize_numeric(system: AtomicSystem, starts: int = 2,
                     rho_cap: float = 1e4, seed: int = 0) -> NumericMinimum:
    """Multi-start local minimization of the reduced surface over [0, cap]^d.

    Independent numerical check of the closed forms.  Radii are optimized
    through u = (2/pi) atan(rho), which keeps gradients well scaled near the
    cap; the cap stands in for the infinite-radius branch, whose energy it
    reproduces to O(1/cap^2).  `starts` counts seeded random starts added to
    a deterministic structured set (origin, one moderate and one near-cap
    start per level, near-cap rays for every level pair).

    Raises RuntimeError if no local solve converges within its budget.
    """
    require_valid(system)
    if starts < 1:
        raise ValueError("starts must be >= 1")
    nv = system.n - 1
    u_cap = 2.0 / math.pi * math.atan(rho_cap)

    def objective(u):
        rho = np.tan(0.5 * math.pi * u)
        e = _reduced_energy_raw(system, rho)
        g = _gradient_raw(system, rho) * (0.5 * math.pi) * (1.0 + rho * rho)
        return e, g

    start_list = [np.full(nv, 0.15)]
    for i in range(nv):
        s = np.full(nv, 0.10)
        s[i] = 0.55
        start_list.append(s)
        s = np.full(nv, 0.02)
        s[i] = 0.97 * u_cap
        start_list.append(s)
    for i in range(nv):
        for j in range(i + 1, nv):
            s = np.full(nv, 0.05)
            s[i] = 0.97 * u_cap
            s[j] = 0.95 * u_cap
            start_list.append(s)
    rng = np.random.default_rng(seed)
    start_list.extend(rng.uniform(0.0, u_cap, nv) for _ in range(starts))

    best = None
    converged = 0
    for s in start_list:
        res = _scipy_minimize(
            objective, s, jac=True, method="L-BFGS-B",
            bounds=[(0.0, u_cap)] * nv,
            options={"maxiter": 500, "ftol": 1e-16, "gtol": 1e-12},
        )
        converged += bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
    if converged == 0:
        raise RuntimeError(
            f"no start converged within budget (best residual f={best.fun})"
        )
    rho = np.tan(0.5 * math.pi * best.x)
    return NumericMinimum(matter=MatterAmplitudes.from_vector(rho),
                          energy=float(best.fun))


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
