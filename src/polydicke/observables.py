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
from typing import Dict, List, Tuple

import numpy as np

from .model import AtomicSystem, Pair, require_valid
from .variational import KIND_NORMAL, VariationalCandidate, condensate


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
        t = system.transition(candidate.pair)
        b_over_a = float(condensate(system, candidate.pair).b_over_a)
        spread = 1.0 - b_over_a * b_over_a
        p_low = 0.5 * (1.0 + b_over_a)
        pop[t.j - 1] = p_low
        pop[t.k - 1] = 1.0 - p_low
        nu[candidate.pair] = (t.mu / t.Omega) ** 2 * spread
        var_nu[candidate.pair] = nu[candidate.pair]
        coh[candidate.pair] = 0.5 * math.sqrt(spread)
        var_pop[t.j - 1] = 0.25 * spread
        var_pop[t.k - 1] = 0.25 * spread
    return ObservableSet(region=candidate.region, nu=nu, pop=tuple(pop),
                         coh=coh, coh_phase=coh_phase,
                         var_pop=tuple(var_pop), var_nu=var_nu)


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
