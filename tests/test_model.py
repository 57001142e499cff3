import dataclasses
import json
import math

import numpy as np
import pytest

from polydicke import (
    AtomicSystem,
    InvalidSystemError,
    Transition,
    cascade_system,
    lmax,
    minimize,
    require_valid,
    validate,
)


def test_lmax_values():
    assert lmax(3) == 2
    assert lmax(2) == 1
    assert lmax(4) == 4


def test_lmax_rejects_single_level():
    with pytest.raises(ValueError):
        lmax(1)


def test_named_configurations_are_valid(xi, vee, lam, cascade4):
    for system in (xi(), vee(), lam(), cascade4()):
        report = validate(system)
        assert report.violations == ()
        assert report.ok


def test_duplicate_pair_is_a_violation():
    system = AtomicSystem(
        n=3, omega=(0.0, 1.0, 1.3),
        transitions=(Transition(1, 2, 1.0, 1.0), Transition(1, 2, 0.5, 0.2)),
    )
    report = validate(system)
    assert any("pair served by two modes" in v for v in report.violations)


def test_non_increasing_levels_is_a_violation():
    system = AtomicSystem(n=3, omega=(0.0, 1.0, 0.5), transitions=())
    report = validate(system)
    assert any("levels not strictly increasing" in v for v in report.violations)


def test_ground_level_energy_must_be_zero():
    system = AtomicSystem(n=2, omega=(0.1, 1.0), transitions=())
    assert not validate(system).ok


def test_transition_field_violations():
    bad_omega = AtomicSystem(n=2, omega=(0.0, 1.0),
                             transitions=(Transition(1, 2, -1.0, 0.5),))
    assert any("positive" in v for v in validate(bad_omega).violations)
    bad_mu = AtomicSystem(n=2, omega=(0.0, 1.0),
                          transitions=(Transition(1, 2, 1.0, -0.5),))
    assert any("nonnegative" in v for v in validate(bad_mu).violations)
    bad_order = AtomicSystem(n=3, omega=(0.0, 1.0, 2.0),
                             transitions=(Transition(2, 1, 1.0, 0.5),))
    assert any("1 <= j < k <= n" in v for v in validate(bad_order).violations)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_violations(bad):
    for field, system in (
        ("level energies", AtomicSystem(n=2, omega=(0.0, bad),
                                        transitions=(Transition(1, 2, 1.0, 0.5),))),
        ("mode frequency", AtomicSystem(n=2, omega=(0.0, 1.0),
                                        transitions=(Transition(1, 2, bad, 0.5),))),
        ("dipolar strength", AtomicSystem(n=2, omega=(0.0, 1.0),
                                          transitions=(Transition(1, 2, 1.0, bad),))),
    ):
        report = validate(system)
        assert any(field in v and "finite" in v for v in report.violations)
        with pytest.raises(InvalidSystemError):
            minimize(system)


@pytest.mark.parametrize("mu", [1e100, 1e200])
def test_overflowing_coupling_is_a_violation(xi, mu):
    # (4 mu^2)^2 in the condensate energy overflows: at 1e100 the energy
    # was -inf, at 1e200 NaN, which minimize and scan_grid handled apart
    system = xi(mu12=mu)
    assert any("(1,2)" in v and "overflows" in v
               for v in validate(system).violations)
    with pytest.raises(InvalidSystemError, match=r"\(1,2\)"):
        minimize(system)


@pytest.mark.parametrize("omega, Omega, mu, term", [
    # 16 Omega mu^2 overflowed: the condensate energy came out 0.0 instead of
    # about -5.6e-151, with an overflow RuntimeWarning
    ([0.0, 1e-150], [1e300], [1e75], "16 Omega mu^2"),
    # (A - B)^2 overflowed through B^2 although no condensate exists
    ([0.0, 1e100], [1e100], [1.0], "((omega_k - omega_j) Omega)^2"),
])
def test_overflowing_condensate_terms_are_violations(omega, Omega, mu, term):
    system = cascade_system(omega, Omega, mu)
    assert [v for v in validate(system).violations
            if "(1,2)" in v and term in v]
    with pytest.raises(InvalidSystemError, match=r"\(1,2\)"):
        minimize(system)


def test_large_finite_coupling_stays_valid(xi):
    assert validate(xi(mu12=1e76)).ok
    assert math.isfinite(minimize(xi(mu12=1e76)).energy)


def test_lmax_excess_is_a_notice_not_violation():
    system = AtomicSystem(
        n=3, omega=(0.0, 1.0, 1.3),
        transitions=(Transition(1, 2, 1.0, 1.0), Transition(1, 3, 1.0, 1.0),
                     Transition(2, 3, 1.0, 1.0)),
    )
    report = validate(system)
    assert report.ok
    assert len(report.notices) == 1


def test_validate_is_idempotent(xi):
    system = xi()
    first = validate(system)
    second = validate(system)
    assert first == second
    assert system == xi()


def test_require_valid_raises_with_all_violations():
    system = AtomicSystem(n=3, omega=(0.0, 1.0, 0.5),
                          transitions=(Transition(1, 2, -1.0, 0.5),))
    with pytest.raises(InvalidSystemError) as err:
        require_valid(system)
    assert "strictly increasing" in str(err.value)
    assert "positive" in str(err.value)


def test_with_couplings_replaces_only_listed(xi):
    system = xi(mu12=1.0, mu23=1.0)
    bumped = system.with_couplings({(1, 2): 0.25})
    assert bumped.transition((1, 2)).mu == 0.25
    assert bumped.transition((2, 3)).mu == 1.0
    assert system.transition((1, 2)).mu == 1.0  # original untouched


def test_system_is_immutable(xi):
    with pytest.raises(AttributeError):
        xi().n = 5


def test_dict_roundtrip(xi):
    system = xi(mu12=0.7, mu23=0.3, atom_count=2)
    assert AtomicSystem.from_dict(system.to_dict()) == system
    # integer level energies, Omega and mu are read as floats, so that the
    # system a file holds prints the same whichever way they were written
    data = system.to_dict()
    data["omega"][1] = 1
    data["transitions"][0].update(Omega=1, mu=2)
    assert json.dumps(AtomicSystem.from_dict(data).to_dict()) == json.dumps(
        system.with_couplings({(1, 2): 2.0}).to_dict())


def test_mu_zero_candidate_never_wins(xi):
    # a zero-mu transition behaves exactly like an omitted one
    from polydicke import minimize

    with_zero = xi(mu12=1.0, mu23=0.0)
    without = AtomicSystem(
        n=3, omega=(0.0, 1.0, 1.3),
        transitions=(Transition(1, 2, 1.0, 1.0),),
    )
    assert minimize(with_zero).region == minimize(without).region
    assert minimize(with_zero).energy == minimize(without).energy


@pytest.mark.parametrize("field, value", [
    ("n", 3.0), ("n", True), ("n", None), ("n", "3"), ("n", 2.5),
    ("atom_count", 2.5), ("atom_count", True), ("atom_count", 2.0),
    ("atom_count", "2"), ("atom_count", None)])
def test_non_integer_counts_are_violations(xi, field, value):
    # n=3.0, atom_count=2.5 and atom_count=True used to validate clean, and
    # matter_distribution then failed with a TypeError; n=None and n="3"
    # made validate itself raise one, at its level-count rule
    system = dataclasses.replace(xi(), **{field: value})
    assert f"{field} must be an integer, got {value!r}" in validate(
        system).violations
    with pytest.raises(InvalidSystemError, match=f"{field} must be an "
                                                 f"integer"):
        minimize(system)


def test_numpy_integer_counts_are_valid(xi):
    assert validate(dataclasses.replace(xi(), n=np.int64(3),
                                        atom_count=np.int32(4))).ok


def _xi_dict(**fields):
    """The xi system's to_dict mapping, with top-level fields and fields of
    its first transition (keys prefixed "t.") replaced."""
    data = AtomicSystem(n=3, omega=(0.0, 1.0, 1.3),
                        transitions=(Transition(1, 2, 1.0, 1.0),
                                     Transition(2, 3, 0.5, 1.0))).to_dict()
    for key, value in fields.items():
        if key.startswith("t."):
            data["transitions"][0][key[2:]] = value
        else:
            data[key] = value
    return data


@pytest.mark.parametrize("fields, violation", [
    ({"n": "3"}, "n must be an integer, got '3'"),
    ({"n": 2.5}, "n must be an integer, got 2.5"),
    ({"atom_count": True}, "atom_count must be an integer, got True"),
    ({"t.j": 1.9}, "transition (1.9,2): level index j must be an integer, "
                   "got 1.9"),
    ({"t.k": "2"}, "transition (1,2): level index k must be an integer, "
                   "got '2'"),
])
def test_system_files_keep_counts_and_indices_for_validate(fields, violation):
    # from_dict used to cast these with int(), so that "n": "3" and
    # "atom_count": true validated clean, "n": 2.5 became 2 levels and
    # "j": 1.9 became level 1
    assert violation in validate(AtomicSystem.from_dict(
        _xi_dict(**fields))).violations


@pytest.mark.parametrize("fields, message", [
    ({"t.Omega": "1.0"}, "transition (1,2): Omega must be a real number, "
                         "got '1.0'"),
    ({"t.mu": True}, "transition (1,2): mu must be a real number, got True"),
    ({"omega": [0.0, "1.0", 1.3]}, "level 2 energy must be a real number, "
                                   "got '1.0'"),
    ({"omega": [0.0, True, 1.3]}, "level 2 energy must be a real number, "
                                  "got True"),
])
def test_system_files_refuse_non_real_numbers(fields, message):
    # from_dict used to cast these with float(), which reads True as 1.0
    with pytest.raises(ValueError) as err:
        AtomicSystem.from_dict(_xi_dict(**fields))
    assert str(err.value) == message


@pytest.mark.parametrize("transition, violation", [
    (Transition(True, 2, 1.0, 1.0),
     "transition (True,2): level index j must be an integer, got True"),
    (Transition(1.5, 2, 1.0, 1.0),
     "transition (1.5,2): level index j must be an integer, got 1.5"),
    (Transition(1, 2, "1.0", 1.0),
     "transition (1,2): Omega must be a real number, got '1.0'"),
    (Transition(1, 2, 1.0, True),
     "transition (1,2): mu must be a real number, got True"),
])
def test_transition_field_types_are_violations(transition, violation):
    # the first validated clean; the other three made validate raise a
    # TypeError, at the level-index rule or the comparisons after it
    system = AtomicSystem(n=2, omega=(0.0, 1.0), transitions=(transition,))
    assert validate(system).violations == (violation,)
    with pytest.raises(InvalidSystemError, match="must be"):
        require_valid(system)
