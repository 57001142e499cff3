import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from polydicke import (cascade_system, condensate, minimize, rwa_rescale,
                       suggest_cutoffs, transition_order)
from polydicke import cli, quantum
from polydicke.cli import main

CASCADE = {
    "n": 3,
    "omega": [0.0, 1.0, 1.3],
    "transitions": [
        {"j": 1, "k": 2, "Omega": 1.0, "mu": 1.0},
        {"j": 2, "k": 3, "Omega": 0.5, "mu": 1.0},
    ],
    "atom_count": 1,
}


@pytest.fixture
def system_file(tmp_path):
    def write(data=CASCADE, name="system.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)
    return write


CASCADE4 = {
    "n": 4,
    "omega": [0.0, 1.0, 1.7, 2.0],
    "transitions": [
        {"j": 1, "k": 2, "Omega": 1.0, "mu": 1.0},
        {"j": 2, "k": 3, "Omega": 0.7, "mu": 1.0},
        {"j": 3, "k": 4, "Omega": 0.3, "mu": 1.0},
    ],
    "atom_count": 1,
}


def _csv_row_reference(system, best):
    """ObservableSet.csv_row of the scalar closed form that expectations
    evaluated at one point."""
    pop = [0.0] * system.n
    if best.pair is None:
        pop[0] = 1.0
        return ["N", "-", "0.0"] + [repr(v) for v in pop] + ["0.0", "0.0"]
    t = system.transition(best.pair)
    b_over_a = float(condensate(system, best.pair).b_over_a)
    spread = 1.0 - b_over_a * b_over_a
    p_low = 0.5 * (1.0 + b_over_a)
    pop[t.j - 1] = p_low
    pop[t.k - 1] = 1.0 - p_low
    nu = (t.mu / t.Omega) ** 2 * spread
    if nu > 0.0:
        tag, coh, var = f"{t.j}-{t.k}", 0.5 * math.sqrt(spread), 0.25 * spread
    else:
        tag, nu, coh, var = "-", 0.0, 0.0, 0.0
    return ([best.region, tag, repr(nu)] + [repr(v) for v in pop]
            + [repr(coh), repr(var)])


def _observable_rows_reference(system, sweep_name, sweep_values,
                               couplings_at, rwa=False):
    """The per-point with_couplings -> minimize -> expectations chain that
    cli._observable_rows replaced."""
    pairs = sorted(p for p in couplings_at(sweep_values[0])
                   if f"mu_{p[0]}_{p[1]}" != sweep_name)
    rows = []
    previous_region = None
    for value in sweep_values:
        mu = couplings_at(value)
        local = system.with_couplings(mu)
        if rwa:
            local = rwa_rescale(local)
        best = minimize(local)
        obs = _csv_row_reference(local, best)
        marker = 0
        if previous_region is not None and obs[0] != previous_region:
            if transition_order(previous_region, obs[0]) == 1:
                marker = 1
        previous_region = obs[0]
        rows.append([repr(float(value))]
                    + [repr(float(mu[p])) for p in pairs]
                    + obs + [str(marker)])
    return rows


def _columns(couplings_at, sweep_values):
    """The coupling columns, pair -> one float per point, of a per-point
    closure."""
    points = [couplings_at(value) for value in sweep_values]
    return {p: [float(mu[p]) for mu in points] for p in points[0]}


def _meta_keys(path):
    """The metadata keys of a CLI output: the `# key: value` lines of a CSV,
    the `meta` object of a JSON file."""
    if path.suffix == ".csv":
        return [line[2:].split(":")[0] for line in path.read_text().splitlines()
                if line.startswith("#")]
    return sorted(json.loads(path.read_text())["meta"])


def read_csv(path):
    lines = path.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in body[1:]]
    return meta, header, rows


class TestValidate:
    def test_valid_system(self, system_file, capsys):
        assert main(["validate", "--system", system_file()]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_system_exits_1(self, system_file, capsys):
        bad = dict(CASCADE, omega=[0.0, 1.0, 0.5])
        assert main(["validate", "--system", system_file(bad, "bad.json")]) == 1
        assert "strictly increasing" in capsys.readouterr().err

    def test_non_finite_coupling_exits_1(self, tmp_path, capsys):
        # json accepts the NaN literal, so the system file parses
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(CASCADE).replace('"mu": 1.0}', '"mu": NaN}', 1))
        assert main(["validate", "--system", str(path)]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("mu", [1e100, 1e200])
    def test_overflowing_coupling_exits_1(self, system_file, capsys, mu):
        big = json.loads(json.dumps(CASCADE))
        big["transitions"][0]["mu"] = mu
        assert main(["validate", "--system", system_file(big, "big.json")]) == 1
        assert "(1,2)" in capsys.readouterr().err

    def test_overflowing_condensate_denominator_exits_1(self, system_file,
                                                         tmp_path, capsys):
        # valid by the (4 mu^2)^2 rule, but 16 Omega mu^2 overflows
        big = cascade_system([0.0, 1e-150], [1e300], [1e75]).to_dict()
        path = system_file(big, "big.json")
        assert main(["validate", "--system", path]) == 1
        assert "16 Omega mu^2" in capsys.readouterr().err
        out = tmp_path / "never.json"
        assert main(["exact", "--system", path, "--cutoff", "4",
                     "--out", str(out)]) == 1
        assert "(1,2)" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["validate", "--system", str(tmp_path / "nope.json")]) == 1


class TestPhaseDiagram:
    def test_grid_and_sidecar(self, system_file, tmp_path):
        out = tmp_path / "grid.csv"
        code = main([
            "phase-diagram", "--system", system_file(),
            "--axes", "1-2", "--axes", "2-3", "--range", "0:2",
            "--res", "21", "--out", str(out),
        ])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["mu_1_2", "mu_2_3", "region", "energy"]
        assert len(rows) == 441
        assert any("config_sha256" in line for line in meta)
        # normal region is the expected rectangle up to one cell
        cell = 0.1
        mu_star_23 = math.sqrt(0.5) * (1 + math.sqrt(1.3)) / 2
        for row in rows:
            a, b = float(row["mu_1_2"]), float(row["mu_2_3"])
            if a < 0.5 - cell and b < mu_star_23 - cell:
                assert row["region"] == "N"
            if a > 0.5 + cell or b > mu_star_23 + cell:
                assert row["region"] != "N"
        sidecar = tmp_path / "grid.separatrix.json"
        payload = json.loads(sidecar.read_text())
        assert payload["normal_boundaries"]["1_2"] == pytest.approx(0.5)
        kinds = {tuple(c["regions"]): c["order"] for c in payload["curves"]}
        assert kinds[("N", "S_1_2")] == 2
        assert kinds[("N", "S_2_3")] == 1
        assert kinds[("S_1_2", "S_2_3")] == 1

    def test_resolution_two_gives_four_cells(self, system_file, tmp_path):
        out = tmp_path / "tiny.csv"
        assert main([
            "phase-diagram", "--system", system_file(),
            "--axes", "1-2", "--axes", "2-3", "--range", "0:2",
            "--res", "2", "--out", str(out),
        ]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 4

    def test_unknown_transition_is_config_error(self, system_file, tmp_path):
        code = main([
            "phase-diagram", "--system", system_file(),
            "--axes", "1-3", "--range", "0:2",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1

    @pytest.mark.parametrize("hi", ["1e100", "1e200"])
    def test_range_reaching_overflow_exits_1(self, system_file, tmp_path, hi):
        out = tmp_path / "x.csv"
        code = main([
            "phase-diagram", "--system", system_file(),
            "--axes", "1-2", "--range", f"0:{hi}", "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()

    def test_rwa_grid_equals_full_at_half_range(self, system_file, tmp_path):
        out_rwa = tmp_path / "rwa.csv"
        out_full = tmp_path / "full.csv"
        main(["phase-diagram", "--system", system_file(), "--axes", "1-2",
              "--axes", "2-3", "--range", "0:2", "--res", "11", "--rwa",
              "--out", str(out_rwa)])
        main(["phase-diagram", "--system", system_file(), "--axes", "1-2",
              "--axes", "2-3", "--range", "0:1", "--res", "11",
              "--out", str(out_full)])
        _, _, rwa_rows = read_csv(out_rwa)
        _, _, full_rows = read_csv(out_full)
        assert [r["region"] for r in rwa_rows] == [r["region"] for r in full_rows]


class TestObservables:
    def test_photon_number_rises_continuously(self, system_file, tmp_path):
        quiet = dict(CASCADE)
        quiet["transitions"] = [
            {"j": 1, "k": 2, "Omega": 1.0, "mu": 0.0},
            {"j": 2, "k": 3, "Omega": 0.5, "mu": 0.0},
        ]
        out = tmp_path / "obs.csv"
        assert main([
            "observables", "--system", system_file(quiet, "quiet.json"),
            "--axes", "1-2", "--range", "0:2", "--res", "81",
            "--out", str(out),
        ]) == 0
        _, header, rows = read_csv(out)
        assert header[0] == "mu_1_2"
        nus = [float(r["nu"]) for r in rows]
        mus = [float(r["mu_1_2"]) for r in rows]
        for mu, nu in zip(mus, nus):
            if mu < 0.5:
                assert nu == 0.0
        jumps = [b - a for a, b in zip(nus, nus[1:])]
        assert max(jumps) < 0.2            # continuous rise, no discontinuity
        assert not any(int(r["discontinuity"]) for r in rows)
        assert nus[-1] > 3.5

    def test_polar_sweep_marks_first_order_jump(self, system_file, tmp_path):
        out = tmp_path / "zeta.csv"
        assert main([
            "observables", "--system", system_file(),
            "--zeta", "1-2,2-3", "--mu", "1.0", "--res", "61",
            "--out", str(out),
        ]) == 0
        _, header, rows = read_csv(out)
        assert header[0] == "zeta"
        marks = [int(r["discontinuity"]) for r in rows]
        assert sum(marks) == 1
        flip = marks.index(1)
        assert rows[flip - 1]["region"] == "S_1_2"
        assert rows[flip]["region"] == "S_2_3"
        # populations jump across the first-order crossing
        assert abs(float(rows[flip]["pop_1"])
                   - float(rows[flip - 1]["pop_1"])) > 0.3

    def test_sweep_inside_normal(self, system_file, tmp_path):
        quiet = dict(CASCADE)
        quiet["transitions"] = [
            {"j": 1, "k": 2, "Omega": 1.0, "mu": 0.0},
            {"j": 2, "k": 3, "Omega": 0.5, "mu": 0.0},
        ]
        out = tmp_path / "normal.csv"
        assert main([
            "observables", "--system", system_file(quiet, "quiet.json"),
            "--axes", "1-2", "--range", "0:0.4", "--res", "9",
            "--out", str(out),
        ]) == 0
        _, _, rows = read_csv(out)
        assert all(r["region"] == "N" for r in rows)
        assert all(float(r["pop_1"]) == 1.0 for r in rows)
        assert all(float(r["nu"]) == 0.0 for r in rows)


class TestObservableRows:
    @pytest.mark.parametrize("config", ["xi", "vee", "lam", "cascade4"])
    @pytest.mark.parametrize("rwa", [False, True])
    def test_rows_match_per_point_chain(self, request, config, rwa):
        make = request.getfixturevalue(config)
        rng = np.random.default_rng(7 + rwa)
        for _ in range(8):
            system = make(*rng.uniform(0.0, 2.0, 3 if config == "cascade4"
                                       else 2).tolist())
            pairs = system.pairs
            pair = pairs[int(rng.integers(len(pairs)))]
            lo = float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
            values = np.linspace(lo, lo + float(rng.uniform(0.5, 3.0)),
                                 int(rng.integers(2, 250)))
            name = f"mu_{pair[0]}_{pair[1]}"

            def along_axis(v):
                return {pair: float(v)}

            header, rows = cli._observable_rows(
                system, name, values, _columns(along_axis, values), rwa=rwa)
            assert header[0] == name and len(header) == len(rows[0])
            assert rows == _observable_rows_reference(system, name, values,
                                                      along_axis, rwa=rwa)
            i, j = rng.choice(len(pairs), 2, replace=False)
            pa, pb = pairs[i], pairs[j]
            radius = float(rng.uniform(0.2, 3.0))
            values = np.linspace(0.0, math.pi / 2, int(rng.integers(2, 250)))

            def polar(z):
                return {pa: radius * math.cos(z), pb: radius * math.sin(z)}

            _, rows = cli._observable_rows(
                system, "zeta", values, _columns(polar, values), rwa=rwa)
            assert rows == _observable_rows_reference(system, "zeta", values,
                                                      polar, rwa=rwa)

    def test_photon_number_squares_as_python_floats(self, system_file,
                                                    tmp_path):
        # at this coupling (Omega_12 = 1) Python's float power and a NumPy
        # product give different last bits of (mu/Omega)^2, and of nu
        out = tmp_path / "obs.csv"
        assert main(["observables", "--system", system_file(),
                     "--axes", "1-2", "--range", "0:2", "--res", "42",
                     "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        mu = 1.6097560975609757
        row = next(r for r in rows if r["mu_1_2"] == repr(mu))
        system = cascade_system([0.0, 1.0, 1.3], [1.0, 0.5], [mu, 1.0])
        b_over_a = float(condensate(system, (1, 2)).b_over_a)
        spread = 1.0 - b_over_a * b_over_a
        assert row["region"] == "S_1_2"
        assert row["nu"] == repr(mu ** 2 * spread) == "2.5671956624134378"
        assert repr(mu * mu * spread) != row["nu"]

    @pytest.mark.parametrize("sweep", [
        ["--axes", "1-2", "--range=-0.5:1"],
        ["--axes", "1-2", "--range", "0:nan"],
        ["--axes", "2-3", "--range", "0:1e200"],
        ["--zeta", "1-2,2-3", "--range=-0.3:1"],
        ["--zeta", "1-2,2-3", "--mu", "nan"],
        ["--zeta", "1-2,2-3", "--mu", "1e100"],
    ])
    @pytest.mark.parametrize("rwa", [[], ["--rwa"]])
    def test_invalid_sweep_exits_1(self, system_file, tmp_path, sweep, rwa):
        out = tmp_path / "obs.csv"
        code = main(["observables", "--system", system_file(),
                     "--res", "9", "--out", str(out)] + sweep + rwa)
        assert code == 1
        assert not out.exists()


class TestRepeatedTransitions:
    """A transition named twice is a configuration error, caught before any
    file is written."""

    def _refused(self, argv, out, capsys):
        assert main(argv + ["--out", str(out)]) == 1
        assert "twice" in capsys.readouterr().err
        # the system file is all the directory holds
        system = Path(argv[argv.index("--system") + 1])
        assert list(out.parent.iterdir()) == [system]

    def test_phase_diagram_cascade4(self, system_file, tmp_path, capsys):
        self._refused(["phase-diagram", "--system",
                       system_file(CASCADE4, "c4.json"), "--axes", "1-2",
                       "--axes", "1-2", "--axes", "2-3", "--range", "0:2",
                       "--res", "5"], tmp_path / "grid.csv", capsys)

    def test_phase_diagram_xi_writes_no_grid(self, system_file, tmp_path,
                                             capsys):
        self._refused(["phase-diagram", "--system", system_file(),
                       "--axes", "1-2", "--axes", "1-2", "--range", "0:2",
                       "--res", "5"], tmp_path / "grid.csv", capsys)

    def test_observables_zeta(self, system_file, tmp_path, capsys):
        self._refused(["observables", "--system", system_file(),
                       "--zeta", "1-2,1-2", "--res", "5"],
                      tmp_path / "zeta.csv", capsys)

    @pytest.mark.parametrize("command", ["observables", "exact", "compare"])
    def test_axes(self, system_file, tmp_path, capsys, command):
        extra = [] if command == "observables" else ["--cutoff", "2"]
        self._refused([command, "--system", system_file(), "--axes", "2-3",
                       "--axes", "2-3", "--range", "0:1", "--res", "2"]
                      + extra, tmp_path / "out.csv", capsys)


class TestExact:
    def test_single_point_zero_coupling(self, system_file, tmp_path):
        quiet = dict(CASCADE)
        quiet["transitions"] = [
            {"j": 1, "k": 2, "Omega": 1.0, "mu": 0.0},
            {"j": 2, "k": 3, "Omega": 0.5, "mu": 0.0},
        ]
        out = tmp_path / "exact.json"
        assert main([
            "exact", "--system", system_file(quiet, "quiet.json"),
            "--na", "1", "--cutoff", "4", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        point = payload["points"][0]
        assert point["energy_per_particle"] == pytest.approx(0.0, abs=1e-10)
        assert point["delta_nu"] == "undefined"

    def test_budget_failure_exits_2(self, system_file, tmp_path):
        code = main([
            "exact", "--system", system_file(), "--na", "1",
            "--cutoff", "100", "--budget", "1000",
            "--out", str(tmp_path / "never.json"),
        ])
        assert code == 2
        assert not (tmp_path / "never.json").exists()

    def test_zero_atoms_exits_1(self, system_file, tmp_path, capsys):
        code = main([
            "exact", "--system", system_file(), "--na", "0",
            "--cutoff", "4", "--out", str(tmp_path / "never.json"),
        ])
        assert code == 1
        assert "atom_count" in capsys.readouterr().err
        assert not (tmp_path / "never.json").exists()

    def test_existing_tmp_sibling_survives_a_write(self, system_file,
                                                   tmp_path):
        out = tmp_path / "out.json"
        bystander = tmp_path / "out.json.tmp"
        bystander.write_text("not ours")
        assert main([
            "exact", "--system", system_file(), "--na", "1",
            "--cutoff", "4", "--out", str(out),
        ]) == 0
        assert bystander.read_text() == "not ours"
        assert json.loads(out.read_text())["points"]
        umask = os.umask(0)
        os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out.json", "out.json.tmp", "system.json"]

    def test_small_grid_normal_region_photon_free(self, system_file, tmp_path):
        out = tmp_path / "grid.json"
        assert main([
            "exact", "--system", system_file(),
            "--axes", "1-2", "--axes", "2-3", "--range", "0:0.4",
            "--res", "3", "--na", "1", "--cutoff", "8", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["points"]) == 9
        # negligible next to the O(1) collective-side occupations
        for point in payload["points"]:
            assert point["observables"]["nu"]["1_2"] < 0.1
        # every emitted number is finite or the explicit undefined token
        assert "NaN" not in out.read_text()
        assert "Infinity" not in out.read_text()

    def test_rwa_suggests_cutoffs_at_half_coupling(self, system_file,
                                                   tmp_path):
        # the rotating-wave ground state holds the full model's photons at
        # half coupling, so its start cutoffs come from there
        data = dict(CASCADE, atom_count=4, transitions=[
            {"j": 1, "k": 2, "Omega": 1.0, "mu": 1.8},
            {"j": 2, "k": 3, "Omega": 0.5, "mu": 0.9},
        ])
        out = tmp_path / "rwa.json"
        assert main(["exact", "--system", system_file(data), "--na", "4",
                     "--rwa", "--out", str(out)]) == 0
        point, = json.loads(out.read_text())["points"]
        assert point["cutoffs"] == {"1_2": 23, "2_3": 24}
        system = cascade_system([0.0, 1.0, 1.3], [1.0, 0.5], [1.8, 0.9],
                                atom_count=4)
        assert suggest_cutoffs(rwa_rescale(system), 4) == {(1, 2): 23,
                                                           (2, 3): 24}
        assert suggest_cutoffs(system, 4) == {(1, 2): 44, (2, 3): 44}

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "0"])
    def test_bad_tolerance_exits_1(self, system_file, tmp_path, capsys, tol):
        code = main([
            "exact", "--system", system_file(), "--na", "1",
            f"--tol={tol}", "--out", str(tmp_path / "never.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "tolerance must be finite and positive" in err
        assert not (tmp_path / "never.json").exists()

    @pytest.mark.parametrize("spec", ["1-2=3.7", "3.7", "1-2=x"])
    def test_non_integer_cutoff_exits_1(self, system_file, tmp_path, capsys,
                                        spec):
        code = main([
            "exact", "--system", system_file(), "--na", "1",
            "--cutoff", spec, "--cutoff", "2-3=4",
            "--out", str(tmp_path / "never.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"--cutoff {spec!r}: the cutoff must be an integer" in err
        assert not (tmp_path / "never.json").exists()

    def test_atom_count_comes_from_the_system_file(self, system_file,
                                                   tmp_path):
        path = system_file(dict(CASCADE, atom_count=2), "two.json")
        points = {}
        for name, na in (("file", []), ("na2", ["--na", "2"]),
                         ("na3", ["--na", "3"])):
            out = tmp_path / f"{name}.json"
            assert main(["exact", "--system", path, "--cutoff", "12",
                         "--out", str(out)] + na) == 0
            points[name] = json.loads(out.read_text())["points"]
        assert points["file"] == points["na2"]
        assert points["na3"] != points["na2"]
        system = cascade_system([0.0, 1.0, 1.3], [1.0, 0.5], [1.0, 1.0])
        for name, na in (("file", 2), ("na3", 3)):
            want = quantum.ground_state(system, na, 12).energy
            assert points[name][0]["energy_per_particle"] == want


class TestUsageErrors:
    """A bad command line is a configuration error: exit 1, no file."""

    @pytest.mark.parametrize("command", ["validate", "phase-diagram",
                                         "observables", "exact", "compare"])
    def test_seed_is_rejected(self, system_file, tmp_path, capsys, command):
        argv = [command, "--system", system_file()]
        if command != "validate":
            argv += ["--axes", "1-2", "--range", "0:1", "--res", "2",
                     "--out", str(tmp_path / "out")]
        if command in ("exact", "compare"):
            argv += ["--cutoff", "4"]
        assert main(argv + ["--seed", "1"]) == 1
        assert "--seed" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["system.json"]
        # the same command line without the flag runs
        assert main(argv) == 0

    @pytest.mark.parametrize("argv", [
        ["--res", "x", "--out", "out.json"],
        [],
    ], ids=["bad-res", "missing-out"])
    def test_bad_argument_exits_1(self, system_file, tmp_path, capsys,
                                  monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(["exact", "--system", system_file(), "--cutoff", "4"]
                    + argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["system.json"]


class TestCompare:
    def test_normal_point_gap_is_exact_energy(self, system_file, tmp_path):
        out = tmp_path / "cmp.json"
        assert main([
            "compare", "--system", system_file(),
            "--axes", "1-2", "--axes", "2-3", "--range", "0.05:0.3",
            "--res", "2", "--na", "1", "--cutoff", "8", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        for point in payload["points"]:
            assert point["label_var"] == "N"
            assert point["E_var"] == 0.0
            assert point["gap"] == pytest.approx(-point["E_exact"], abs=1e-12)
            assert point["gap"] >= -1e-9
        assert payload["summary"]["cells"] == 4

    def test_collective_labels_agree_with_delta_nu(self, system_file, tmp_path):
        out = tmp_path / "cmp2.json"
        assert main([
            "compare", "--system", system_file(),
            "--axes", "1-2", "--range", "1.4:1.6",
            "--res", "2", "--na", "1", "--cutoff", "1-2=24", "--cutoff", "2-3=8",
            "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        # deep in the ground-pair region: delta_nu < 0 and labels agree
        for point in payload["points"]:
            assert point["labels_agree"] is True
            assert point["delta_nu"] < -0.5

    def test_rwa_uses_rotating_wave_variational_energy(self, system_file,
                                                        tmp_path):
        # the rotating-wave problem at (0.61, 0.79) is the full one at half
        # those couplings, which lies in the normal region
        out = tmp_path / "cmp_rwa.json"
        assert main([
            "compare", "--system", system_file(),
            "--axes", "1-2", "--axes", "2-3", "--range", "0.61:0.79",
            "--res", "2", "--na", "1", "--cutoff", "8", "--rwa",
            "--out", str(out),
        ]) == 0
        points = json.loads(out.read_text())["points"]
        assert points[1]["couplings"] == {"1_2": 0.61, "2_3": 0.79}
        for point in points:
            assert point["label_var"] == "N"
            assert point["E_var"] == 0.0
            assert point["gap"] >= -1e-9


    def test_fixed_cutoff_grid_builds_one_structure(self, system_file,
                                                     tmp_path, monkeypatch):
        searches = []
        search = quantum.connected_components

        def recording(*args, **kwargs):
            searches.append(args[0].shape[0])
            return search(*args, **kwargs)

        monkeypatch.setattr(quantum, "connected_components", recording)
        out = tmp_path / "cmp_grid.json"
        assert main([
            "compare", "--system", system_file(),
            "--axes", "1-2", "--axes", "2-3", "--range", "0.6:2.0",
            "--res", "3", "--na", "2", "--cutoff", "1-2=16",
            "--cutoff", "2-3=32", "--rwa", "--out", str(out),
        ]) == 0
        assert len(json.loads(out.read_text())["points"]) == 9
        assert searches == [17 * 33 * 6]


class TestCompareScoring:
    """Which cells `compare` scores: those whose whole Chebyshev
    neighbourhood of radius 2 within the grid shares their label."""

    def test_one_axis_margin_and_edges(self):
        labels = np.array(["N"] * 6 + ["S"] * 6, dtype=object)
        kept = cli._away_from_label_changes(labels, margin=2)
        assert kept.tolist() == [True] * 4 + [False] * 4 + [True] * 4

    def test_grid_narrower_than_the_margin(self):
        labels = np.array(["S_1_2"] * 3, dtype=object)
        assert cli._away_from_label_changes(labels, margin=2).all()

    def test_two_axes_stripe_reaches_every_row(self):
        labels = np.full((5, 7), "N", dtype=object)
        labels[:, 3:] = "S"
        kept = cli._away_from_label_changes(labels, margin=2)
        row = [True, False, False, False, False, True, True]
        assert kept.tolist() == [row] * 5

    def test_two_axes_corner_cell_is_a_chebyshev_square(self):
        labels = np.full((6, 6), "N", dtype=object)
        labels[0, 0] = "S"
        kept = cli._away_from_label_changes(labels, margin=2)
        # cells at Chebyshev distance <= 2 of the odd corner, the corner
        # included, are dropped; (2, 3) is 3 columns away and kept
        i, j = np.indices((6, 6))
        assert np.array_equal(kept, np.maximum(i, j) > 2)
        assert kept[2, 3] and kept[5, 5] and kept[0, 5]

    @staticmethod
    def _compare(system_file, tmp_path, monkeypatch, axes, delta_nu):
        """compare on the xi system with the exact solve replaced by one
        returning delta_nu(couplings)."""
        def exact_at(system, mu, args, cutoffs):
            return SimpleNamespace(energy=-10.0, delta_nu=delta_nu(mu))

        monkeypatch.setattr(cli, "_exact_at", exact_at)
        out = tmp_path / "scored.json"
        assert main(["compare", "--system", system_file(), *axes,
                     "--na", "1", "--out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_summary_scores_interior_collective_cells(self, system_file,
                                                      tmp_path, monkeypatch):
        # mu23 = 1: S_2_3 at mu12 = 0 .. 1.0, S_1_2 at 1.2 .. 2.0
        dn = {0: 0.5, 1: -0.5, 2: 0.5, 3: 0.5, 4: -0.5, 5: 0.5,
              6: -0.5, 7: 0.5, 8: -0.5, 9: None, 10: -0.5}
        payload = self._compare(
            system_file, tmp_path, monkeypatch,
            ["--axes", "1-2", "--range", "0:2", "--res", "11"],
            lambda mu: dn[round(mu[(1, 2)] * 5)])
        labels = [p["label_var"] for p in payload["points"]]
        assert labels == ["S_2_3"] * 6 + ["S_1_2"] * 5
        # interior cells 0-3 and 8-10; cell 9 has no delta_nu, and of the
        # other six only cell 1 predicts the wrong region
        assert payload["summary"]["cells_scored"] == 6
        assert payload["summary"]["label_agreement_fraction"] == 5 / 6
        assert [p["labels_agree"] for p in payload["points"]] == [
            True, False, True, True, False, True,
            True, False, True, None, True]

    def test_no_scored_cell_gives_no_fraction(self, system_file, tmp_path,
                                              monkeypatch):
        # the normal region predicts no pair, so no cell is scored
        payload = self._compare(
            system_file, tmp_path, monkeypatch,
            ["--axes", "1-2", "--axes", "2-3", "--range", "0.05:0.3",
             "--res", "5"],
            lambda mu: -0.5)
        assert {p["label_var"] for p in payload["points"]} == {"N"}
        assert payload["summary"]["cells"] == 25
        assert payload["summary"]["cells_scored"] == 0
        assert payload["summary"]["label_agreement_fraction"] is None


class TestDeterminism:
    META = ["tool", "version", "command", "config_sha256"]

    def _twice(self, args, tmp_path, suffix):
        """Run args to two files; return them."""
        a, b = tmp_path / f"a{suffix}", tmp_path / f"b{suffix}"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        return a, b

    def test_phase_diagram_byte_identical(self, system_file, tmp_path):
        args = ["phase-diagram", "--system", system_file(), "--axes", "1-2",
                "--axes", "2-3", "--range", "0:2", "--res", "7"]
        a, b = self._twice(args, tmp_path, ".csv")
        assert a.read_bytes() == b.read_bytes()
        assert _meta_keys(a) == self.META
        sidecars = [tmp_path / f"{x}.separatrix.json" for x in "ab"]
        assert sidecars[0].read_bytes() == sidecars[1].read_bytes()
        assert _meta_keys(sidecars[0]) == sorted(self.META)

    @pytest.mark.parametrize("sweep", [
        ["--axes", "1-2", "--range", "0:2"],
        ["--zeta", "2-3,1-2", "--mu", "1.3", "--rwa"],
    ], ids=["axis", "zeta"])
    def test_observables_byte_identical(self, system_file, tmp_path, sweep):
        args = ["observables", "--system", system_file(), "--res", "31"]
        a, b = self._twice(args + sweep, tmp_path, ".csv")
        assert a.read_bytes() == b.read_bytes()
        assert _meta_keys(a) == self.META

    def test_exact_byte_identical(self, system_file, tmp_path):
        args = ["exact", "--system", system_file(), "--na", "1",
                "--cutoff", "12"]
        a, b = self._twice(args, tmp_path, ".json")
        assert a.read_bytes() == b.read_bytes()
        assert _meta_keys(a) == sorted(self.META)

    def test_successive_calls_match_fresh_processes(self, system_file,
                                                    tmp_path):
        # one parser serves every call: appended options must not carry over,
        # neither to another subcommand nor to the next call of the same one
        runs = {
            "exact": ["exact", "--system", system_file(), "--na", "1",
                      "--axes", "1-2", "--range", "0.5:1.5", "--res", "2",
                      "--cutoff", "1-2=6", "--cutoff", "2-3=9"],
            "compare": ["compare", "--system", system_file(), "--na", "2",
                        "--axes", "2-3", "--axes", "1-2", "--range", "0:1",
                        "--res", "2", "--cutoff", "5", "--rwa"],
            "exact-again": ["exact", "--system", system_file(), "--na", "1",
                            "--axes", "2-3", "--range", "0:1", "--res", "2",
                            "--cutoff", "7"],
        }
        for name, args in runs.items():
            assert main(args + ["--out", str(tmp_path / name)]) == 0
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        for name, args in runs.items():
            fresh = tmp_path / f"{name}.fresh"
            subprocess.run([sys.executable, "-m", "polydicke.cli", *args,
                            "--out", str(fresh)], env=env, check=True,
                           capture_output=True)
            assert (tmp_path / name).read_bytes() == fresh.read_bytes()
