"""Closed-form observables of the variational ground state, per region.

In a collective region S(j,k) only the pair's mode and levels carry
expectation values; with A = 4 mu^2 and B = (omega_k - omega_j) Omega they
read (all per particle)

    <nu_jk>      = (mu/Omega)^2 (1 - B^2/A^2)
    <A_jj>, <A_kk> = (1 +/- B/A)/2
    |<A_jk>|     = (1/2) sqrt(1 - B^2/A^2)
    (Delta A)^2  = (1/4)(1 - B^2/A^2)    for both occupied levels.

The field is Poissonian (variance equals mean) and the matter distribution
over the occupied pair is binomial.  The photon number and the population
fluctuation obey <nu> = 4 (mu/Omega)^2 (Delta A_jj)^2 identically; the
module keeps it as a residual so it can be asserted in tests.  The matter
and field factors of the state are independent, so joint moments factorize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Tuple

import numpy as np

from .model import AtomicSystem, Pair, require_valid
from .variational import (KIND_NORMAL, VariationalCandidate, condensate,
                          minimize_array)


@dataclass(frozen=True)
class ObservableSet:
    """Per-particle expectation values and fluctuations for one region.

    Populations always close to 1; at most one transition carries photons
    (monochromatic ground state); coherence phases are reported as the
    canonical 0 representative of the degenerate {0, pi} set.
    """

    region: str
    nu: Dict[Pair, float]
    pop: Tuple[float, ...]
    coh: Dict[Pair, float]
    coh_phase: Dict[Pair, float]
    var_pop: Tuple[float, ...]
    var_nu: Dict[Pair, float]

    @property
    def active_pair(self) -> Pair | None:
        for p, v in self.nu.items():
            if v > 0.0:
                return p
        return None

    def csv_row(self) -> List[str]:
        """Columns region, pair, nu, pop_1..pop_n, coh, var_pop."""
        pair = self.active_pair
        if pair is None:
            tag, nu, coh, var = "-", 0.0, 0.0, 0.0
        else:
            tag = f"{pair[0]}-{pair[1]}"
            nu, coh = self.nu[pair], self.coh[pair]
            var = self.var_pop[pair[0] - 1]
        return ([self.region, tag, repr(nu)]
                + [repr(p) for p in self.pop]
                + [repr(coh), repr(var)])


def csv_header(n: int) -> List[str]:
    return (["region", "pair", "nu"]
            + [f"pop_{j}" for j in range(1, n + 1)]
            + ["coh", "var_pop"])


class PairObservables(NamedTuple):
    """Observables of one pair's condensate, elementwise over its coupling."""

    nu: np.ndarray          # <nu_jk>, which is also its variance
    pop_low: np.ndarray     # <A_jj>
    pop_high: np.ndarray    # <A_kk>
    coh: np.ndarray         # |<A_jk>|
    var_pop: np.ndarray     # (Delta A)^2 of both occupied levels


def condensate_observables(system: AtomicSystem, pair: Pair,
                           mu=None) -> PairObservables:
    """Closed-form observables of the condensate of `pair` (see the module
    docstring), as 1-d arrays over mu.

    mu lists couplings at which the condensate exists and defaults to the
    transition's own.  (mu/Omega)^2 is Python's float power, element by
    element, which rounds differently from a NumPy product in the last bit.
    """
    t = system.transition(pair)
    mu = np.atleast_1d(np.asarray(t.mu if mu is None else mu, dtype=float))
    b_over_a = condensate(system, pair, mu).b_over_a
    spread = 1.0 - b_over_a * b_over_a
    p_low = 0.5 * (1.0 + b_over_a)
    square = np.array([x ** 2 for x in (mu / t.Omega).tolist()])
    return PairObservables(nu=square * spread, pop_low=p_low,
                           pop_high=1.0 - p_low, coh=0.5 * np.sqrt(spread),
                           var_pop=0.25 * spread)


def expectations(system: AtomicSystem,
                 candidate: VariationalCandidate) -> ObservableSet:
    """Observable set of an existing candidate."""
    require_valid(system)
    if not candidate.exists:
        raise ValueError("candidate does not exist at these couplings")
    pairs = system.pairs
    nu = {p: 0.0 for p in pairs}
    var_nu = {p: 0.0 for p in pairs}
    coh = {p: 0.0 for p in pairs}
    coh_phase = {p: 0.0 for p in pairs}
    pop = [0.0] * system.n
    var_pop = [0.0] * system.n
    if candidate.kind == KIND_NORMAL:
        pop[0] = 1.0
    else:
        j, k = candidate.pair
        obs = condensate_observables(system, candidate.pair)
        pop[j - 1], pop[k - 1] = obs.pop_low.item(), obs.pop_high.item()
        nu[candidate.pair] = var_nu[candidate.pair] = obs.nu.item()
        coh[candidate.pair] = obs.coh.item()
        var_pop[j - 1] = var_pop[k - 1] = obs.var_pop.item()
    return ObservableSet(region=candidate.region, nu=nu, pop=tuple(pop),
                         coh=coh, coh_phase=coh_phase,
                         var_pop=tuple(var_pop), var_nu=var_nu)


def sweep_rows(system: AtomicSystem,
               mu: Mapping[Pair, np.ndarray]) -> List[List[str]]:
    """:meth:`ObservableSet.csv_row` of the variational ground state at each
    point of a sweep, from arrays.

    mu maps the swept pairs to 1-d arrays of couplings of equal length; the
    other pairs keep the system's.  Each point's ground state is
    :func:`variational.minimize_array`'s, and each pair's columns come from
    one :func:`condensate_observables` call over the points it wins.  The
    caller validates the couplings.
    """
    size = len(next(iter(mu.values())))
    best, _ = minimize_array(system, mu, (size,))
    region = np.full(size, "N", dtype=object)
    tag = np.full(size, "-", dtype=object)
    nu, coh, var = np.zeros(size), np.zeros(size), np.zeros(size)
    pop = np.zeros((system.n, size))
    pop[0, best == 0] = 1.0
    for m, (j, k) in enumerate(system.pairs, start=1):
        at = np.flatnonzero(best == m)
        if not at.size:
            continue
        coupling = mu.get((j, k), system.transition((j, k)).mu)
        obs = condensate_observables(
            system, (j, k), np.broadcast_to(coupling, (size,))[at])
        region[at] = f"S_{j}_{k}"
        pop[j - 1, at] = obs.pop_low
        pop[k - 1, at] = obs.pop_high
        # as in csv_row, the pair is reported only where it holds photons
        active = obs.nu > 0.0
        on = at[active]
        tag[on] = f"{j}-{k}"
        nu[on], coh[on], var[on] = (obs.nu[active], obs.coh[active],
                                    obs.var_pop[active])
    columns = ([region.tolist(), tag.tolist()]
               + [list(map(repr, c.tolist())) for c in (nu, *pop, coh, var)])
    return [list(row) for row in zip(*columns)]


def photon_distribution(system: AtomicSystem, candidate: VariationalCandidate,
                        count: int) -> np.ndarray:
    """P(m) for m = 0..count photons in the active mode: Poisson with mean
    N_a * r_c^2 (a point mass at 0 for the normal state)."""
    if not candidate.exists:
        raise ValueError("candidate does not exist at these couplings")
    if count < 0:
        raise ValueError("count must be nonnegative")
    lam = system.atom_count * (candidate.photon_amp or 0.0) ** 2
    m = np.arange(count + 1)
    if lam == 0.0:
        out = np.zeros(count + 1)
        out[0] = 1.0
        return out
    log_p = -lam + m * math.log(lam) - np.array(
        [math.lgamma(v + 1.0) for v in m]
    )
    return np.exp(log_p)


def matter_distribution(system: AtomicSystem,
                        candidate: VariationalCandidate) -> np.ndarray:
    """P(x) for x = 0..N_a atoms in the upper level of the active pair:
    binomial with success probability the upper-level population."""
    if not candidate.exists:
        raise ValueError("candidate does not exist at these couplings")
    na = system.atom_count
    if candidate.kind == KIND_NORMAL:
        q = 0.0
    else:
        obs = expectations(system, candidate)
        q = obs.pop[candidate.pair[1] - 1]
    x = np.arange(na + 1)
    out = np.array([
        math.comb(na, int(v)) * (1.0 - q) ** (na - v) * q ** v for v in x
    ])
    return out


def universal_relation_residual(system: AtomicSystem,
                                candidate: VariationalCandidate) -> float:
    """<nu_jk> - 4 (mu/Omega)^2 (Delta A_jj)^2: zero up to rounding in every
    collective region.  At the normal boundary the same identity reduces to
    <nu> = (sqrt(omega_j)+sqrt(omega_k))^2/Omega * (Delta A_jj)^2."""
    if not candidate.exists:
        raise ValueError("candidate does not exist at these couplings")
    if candidate.kind == KIND_NORMAL:
        raise ValueError("relation degenerates to 0 = 0 in the normal region")
    obs = expectations(system, candidate)
    t = system.transition(candidate.pair)
    j = t.j
    return obs.nu[candidate.pair] - 4.0 * (t.mu / t.Omega) ** 2 * obs.var_pop[j - 1]
