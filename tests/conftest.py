import numpy as np
import pytest

from polydicke import AtomicSystem, Transition, cascade_system, lambda_system, vee_system
from polydicke import quantum

# Benchmark parameter sets used throughout: a 3-level cascade
# (Omega12=1, Omega23=0.5, omega2=1, omega3=1.3), a V system
# (Omega13=1, Omega12=0.8, omega2=0.8, omega3=1), a Lambda system
# (Omega13=1, Omega23=0.8, omega2=0.2, omega3=1), and a 4-level cascade
# (Omega=1, 0.7, 0.3, omega=0, 1, 1.7, 2).


@pytest.fixture(autouse=True)
def cold_truncations():
    """Start every test with no truncation structure kept from another."""
    quantum._truncation.cache_clear()


@pytest.fixture
def xi():
    def make(mu12=1.0, mu23=1.0, atom_count=1):
        return cascade_system([0.0, 1.0, 1.3], [1.0, 0.5], [mu12, mu23],
                              atom_count=atom_count)
    return make


@pytest.fixture
def vee():
    def make(mu12=1.0, mu13=1.0, atom_count=1):
        return vee_system(0.8, 1.0, Omega12=0.8, Omega13=1.0,
                          mu12=mu12, mu13=mu13, atom_count=atom_count)
    return make


@pytest.fixture
def lam():
    def make(mu13=1.0, mu23=1.0, atom_count=1):
        return lambda_system(0.2, 1.0, Omega13=1.0, Omega23=0.8,
                             mu13=mu13, mu23=mu23, atom_count=atom_count)
    return make


@pytest.fixture
def cascade4():
    def make(mu12=1.0, mu23=1.0, mu34=1.0, atom_count=1):
        return cascade_system([0.0, 1.0, 1.7, 2.0], [1.0, 0.7, 0.3],
                              [mu12, mu23, mu34], atom_count=atom_count)
    return make


def random_system(rng: np.random.Generator, n: int,
                  collective_pair=None) -> AtomicSystem:
    """Random valid system; optionally force one pair deep into existence."""
    omega = (0.0,) + tuple(np.cumsum(rng.uniform(0.2, 1.0, n - 1)))
    all_pairs = [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
    keep = [p for p in all_pairs if rng.uniform() < 0.7]
    if not keep:
        keep = [all_pairs[int(rng.integers(len(all_pairs)))]]
    if collective_pair is not None and collective_pair not in keep:
        keep.append(collective_pair)
    transitions = []
    for (j, k) in sorted(keep):
        Om = float(rng.uniform(0.3, 2.0))
        mu = float(rng.uniform(0.0, 2.0))
        if collective_pair == (j, k):
            bound = np.sqrt((omega[k - 1] - omega[j - 1]) * Om) / 2.0
            mu = float(bound * (1.0 + rng.uniform(0.01, 2.0)))
        transitions.append(Transition(j, k, Om, mu))
    return AtomicSystem(n=n, omega=omega, transitions=tuple(transitions))
