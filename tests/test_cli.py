import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import midspec
from midspec import cli

# The directory this process imports midspec from, made absolute so a child
# finds the package whatever its working directory.
SRC = str(Path(midspec.__file__).resolve().parents[1])


def run_python(*args, cwd=None, env=None, timeout=None, stdout=subprocess.PIPE):
    """Run a fresh interpreter that imports this midspec; ``env`` merges over
    ``os.environ``; a child still running after ``timeout`` seconds fails
    the test with ``subprocess.TimeoutExpired``; ``stdout`` is captured
    unless a file descriptor is given."""
    child_env = {**os.environ, **(env or {})}
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, child_env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        cwd=cwd,
        env=child_env,
        timeout=timeout,
    )


def run_cli(*args, cwd=None, env=None, timeout=None):
    """Run the CLI in a fresh process; ``env`` merges over ``os.environ``."""
    return run_python("-m", "midspec.cli", *args, cwd=cwd, env=env, timeout=timeout)


@pytest.fixture(scope="module")
def example_dir(tmp_path_factory):
    """Designed order-3 system plus its spectrum/verify artifacts."""
    d = tmp_path_factory.mktemp("cli_example")
    r = run_cli("design", "--n", "3", "--s0", "-0.5", "--tau", "2.5",
                "--out-dir", str(d))
    assert r.returncode == 0, r.stderr
    return d


# --- design ---------------------------------------------------------------------


def test_design_writes_system_and_listing(example_dir):
    doc = json.loads((example_dir / "system.json").read_text())
    assert set(doc) == {"n", "a", "alpha", "tau"}
    assert doc["n"] == 3 and doc["tau"] == 2.5
    assert abs(doc["a"][2] + 2.1) < 1e-12
    assert abs(doc["alpha"][2] - 0.3438058) < 5e-7
    listing = (example_dir / "design.txt").read_text()
    assert "trace identity" in listing
    manifest = json.loads((example_dir / "manifest.json").read_text())
    assert manifest["command"] == "design"
    assert str(example_dir / "system.json") in manifest["outputs"]
    assert manifest["timestamp"].endswith("+00:00")


def test_design_n2(tmp_path):
    r = run_cli("design", "--n", "2", "--s0", "0", "--tau", "1", "--out-dir", str(tmp_path))
    assert r.returncode == 0
    doc = json.loads((tmp_path / "system.json").read_text())
    assert doc["a"] == [6.0, -4.0] and doc["alpha"] == [-6.0, -2.0]


def test_design_rejects_zero_delay(tmp_path):
    r = run_cli("design", "--n", "2", "--s0", "0", "--tau", "0", "--out-dir", str(tmp_path))
    assert r.returncode == 2


def test_missing_flags_exit_2(tmp_path):
    r = run_cli("design", "--n", "2", "--out-dir", str(tmp_path))
    assert r.returncode == 2


def test_float_options_take_negative_scientific_notation(example_dir, tmp_path, capsys):
    # argparse once read -1.2e-05 as an option name: "expected one argument"
    system = str(example_dir / "system.json")
    for argv in (["design", "--n", "3", "--s0", "-1.2e-05", "--tau", "2.5"],
                 ["bounds", "--standard-pair", "--method", "rho", "--sigma-min", "-1e-3"],
                 ["spectrum", system, "--re-min", "-5e0"]):
        assert cli.main(argv + ["--out-dir", str(tmp_path / argv[0]), "--quiet"]) == 0, argv
    assert cli.main(["design", "--n", "3", "--s0=-1.2e-05", "--tau", "2.5", "--quiet",
                     "--out-dir", str(tmp_path / "eq")]) == 0
    assert (tmp_path / "design" / "system.json").read_text() == (tmp_path / "eq" / "system.json").read_text()
    capsys.readouterr()

    for argv in (["design", "--n", "3", "--s0", "-x", "--tau", "2.5"],
                 ["design", "--bogus", "--n", "3", "--s0", "-1e-5", "--tau", "2.5"]):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv + ["--out-dir", str(tmp_path / "bad")])
        assert exit_.value.code == 2, argv
    assert not (tmp_path / "bad").exists()


# --- spectrum --------------------------------------------------------------------


def test_spectrum_example(example_dir, tmp_path):
    r = run_cli("spectrum", str(example_dir / "system.json"), "--out-dir", str(tmp_path))
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "spectrum.json").read_text())
    assert report["strictly_dominant"] is True
    assert abs(report["spectral_abscissa"] + 0.5) < 1e-8
    lines = (tmp_path / "roots.csv").read_text().strip().splitlines()
    assert lines[0] == "re,im,multiplicity,residual"
    top = lines[1].split(",")
    assert abs(float(top[0]) + 0.5) < 1e-9 and int(top[2]) == 6


def test_spectrum_prints_the_exact_design_verdict(example_dir, tmp_path):
    r = run_cli("spectrum", str(example_dir / "system.json"), "--out-dir", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert ("exact MID design: the 6-fold root s0 is strictly dominant, every other root "
            "has Re s <= s0 - 0.4 (") in r.stdout
    r = run_cli("spectrum", str(example_dir / "system.json"), "--out-dir", str(tmp_path), "--json")
    doc = json.loads(r.stdout)
    assert doc["certificate"]["gap"] == pytest.approx(0.4) and doc["certificate"]["discs"] > 0
    report = json.loads((tmp_path / "spectrum.json").read_text())
    assert set(report) == {"roots", "region", "spectral_abscissa", "dominant", "strictly_dominant"}


def test_spectrum_small_region_quartic(tmp_path):
    r = run_cli("design", "--n", "2", "--s0", "0", "--tau", "1", "--out-dir", str(tmp_path))
    assert r.returncode == 0
    r = run_cli(
        "spectrum", str(tmp_path / "system.json"),
        "--re-min", "-1", "--re-max", "1", "--im-min", "-1", "--im-max", "1",
        "--out-dir", str(tmp_path), "--json",
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert len(doc["roots"]) == 1
    assert doc["roots"][0]["multiplicity"] == 4


def test_spectrum_empty_region_exit_3(example_dir, tmp_path):
    r = run_cli(
        "spectrum", str(example_dir / "system.json"),
        "--re-min", "0.2", "--re-max", "1.0", "--im-min", "-1", "--im-max", "1",
        "--out-dir", str(tmp_path),
    )
    assert r.returncode == 3
    assert "no roots" in r.stderr


@pytest.mark.parametrize("flags", [[], ["--json"], ["--quiet"]], ids=["plain", "json", "quiet"])
@pytest.mark.parametrize("stage", ["find_roots", "certify_dominance"])
def test_spectrum_inconclusive_names_its_cause_on_stderr(stage, flags, example_dir, tmp_path,
                                                         monkeypatch, capsys):
    # the cause once went through stdout: --json printed {} and --quiet nothing
    from midspec import spectral

    def inconclusive(*args, **kwargs):
        raise spectral.LocalizationError("root remains on the boundary")

    monkeypatch.setattr(spectral, stage, inconclusive)
    out_dir = tmp_path / "out"
    argv = ["spectrum", str(example_dir / "system.json"), "--out-dir", str(out_dir), *flags]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == "inconclusive: root remains on the boundary\n"
    assert captured.out == ""
    assert not out_dir.exists()


def test_spectrum_determinism(example_dir, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        r = run_cli("spectrum", str(example_dir / "system.json"), "--out-dir", str(d), "--quiet")
        assert r.returncode == 0
    assert (a / "roots.csv").read_bytes() == (b / "roots.csv").read_bytes()
    assert (a / "spectrum.json").read_bytes() == (b / "spectrum.json").read_bytes()


# --- bounds ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def bounds_all(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_bounds")
    r = run_cli("bounds", "--standard-pair", "--all", "--out-dir", str(d), "--quiet")
    assert r.returncode == 0, r.stderr
    lines = (d / "bounds.csv").read_text().strip().splitlines()
    rows = {}
    for line in lines[1:]:
        method, norm, power, smin, value = line.split(",")
        rows[(method, norm, int(power))] = float(value)
    return rows


def test_bounds_all_reproduces_tables(bounds_all):
    expected = {
        ("rho", "none", 1): 5.9763,
        ("norm-power", "one", 1): 10.4520,
        ("norm-power", "frobenius", 1): 10.6304,
        ("norm-power", "infinity", 1): 11.4720,
        ("norm-power", "one", 2): 6.4630,
        ("norm-power", "frobenius", 2): 6.0803,
        ("norm-power", "infinity", 2): 7.8163,
        ("mori-kokame", "one", 1): 12.0,
        ("mori-kokame", "two", 1): 9.8246,
        ("mori-kokame", "infinity", 1): 14.0,
        ("tissir-hmamed", "one", 1): 12.0,
        ("tissir-hmamed", "two", 1): 7.6623,
        ("tissir-hmamed", "infinity", 1): 14.0,
    }
    assert len(expected) == 13
    for key, want in expected.items():
        assert key in bounds_all, key
        assert abs(bounds_all[key] - want) < 1e-3, (key, bounds_all[key], want)
    assert bounds_all[("mori-kokame", "one", 1)] == 12.0
    assert bounds_all[("mori-kokame", "infinity", 1)] == 14.0


def test_bounds_all_includes_lemma_chain(bounds_all):
    assert abs(bounds_all[("lemma3-coarse", "frobenius", 2)] - (64190 / 31) ** 0.25) < 1e-6
    assert abs(bounds_all[("lemma3-refined", "frobenius", 2)] - 1532.94**0.25) < 1e-4
    assert abs(bounds_all[("lemma3-certified", "frobenius", 2)] - 2 * math.pi) < 1e-12


def test_bounds_all_on_designed_system(bounds_all, tmp_path):
    # the analytic chain covers the standard pair only: --all leaves its rows out
    assert len(bounds_all) == 16  # standard pair: 13 table rows + 3 chain rows
    r = run_cli("design", "--n", "1", "--s0", "-0.5", "--tau", "2.5", "--out-dir", str(tmp_path))
    assert r.returncode == 0, r.stderr
    system = str(tmp_path / "system.json")
    r = run_cli("bounds", system, "--all", "--out-dir", str(tmp_path), "--quiet")
    assert r.returncode == 0, r.stderr
    rows = (tmp_path / "bounds.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 13
    assert not any(row.startswith("lemma3") for row in rows)
    r = run_cli("bounds", system, "--method", "lemma3", "--out-dir", str(tmp_path))
    assert r.returncode == 2
    assert "standard normalized pair" in r.stderr


def test_bounds_all_on_order3_design_bounds_its_roots(example_dir, tmp_path):
    # the n >= 3 sweeps through the CLI; rho, the sharpest row, bounds |Im z|
    # of every root in Re z >= sigma_min of the pair normalized at s0, by an
    # independent spectral method (Chebyshev collocation of the generator)
    from oracles import chebyshev_eigenvalues

    system = example_dir / "system.json"
    r = run_cli("bounds", str(system), "--all", "--out-dir", str(tmp_path), "--json")
    assert r.returncode == 0, r.stderr
    rows = json.loads(r.stdout)["rows"]
    assert len(rows) == 13 and all(math.isfinite(row["value"]) for row in rows)
    sweeps = [row for row in rows if row["method"] in ("rho", "norm-power")]
    assert all(row["kernel_points"] > 0 for row in sweeps)
    assert all(row["kernel_points"] == 0 for row in rows if row not in sweeps)
    rho = rows[0]["value"]
    assert rows[0]["method"] == "rho"
    assert all(rho <= row["value"] for row in sweeps)

    sys_ = cli._load_system(str(system))
    z = sys_.tau * (chebyshev_eigenvalues(sys_, 60) - cli._default_s0(sys_))
    assert np.abs(z[z.real >= 0.0].imag).max() <= rho
    # left of the 6-fold root lie roots with |Im z| near 13 and 19
    r = run_cli("bounds", str(system), "--method", "rho", "--sigma-min", "-2",
                "--out-dir", str(tmp_path), "--json")
    assert r.returncode == 0, r.stderr
    rho2 = json.loads(r.stdout)["rows"][0]["value"]
    assert np.abs(z[z.real >= -2.0].imag).max() > rho
    assert np.abs(z[z.real >= -2.0].imag).max() <= rho2


def test_bounds_invalid_combination_exit_2(tmp_path):
    r = run_cli(
        "bounds", "--standard-pair", "--method", "mori-kokame", "--norm", "frobenius",
        "--out-dir", str(tmp_path),
    )
    assert r.returncode == 2


def test_bounds_single_method(tmp_path):
    r = run_cli("bounds", "--standard-pair", "--method", "rho", "--out-dir", str(tmp_path))
    assert r.returncode == 0
    lines = (tmp_path / "bounds.csv").read_text().strip().splitlines()
    assert lines[0] == "method,norm,power,sigma_min,value"
    assert abs(float(lines[1].split(",")[4]) - 5.9763) < 1e-3


def test_bounds_requires_pair(tmp_path):
    r = run_cli("bounds", "--method", "rho", "--out-dir", str(tmp_path))
    assert r.returncode == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_bounds_non_finite_sigma_min_exit_2(value, tmp_path):
    # nan and inf once gave every sweep row 0; -inf never ended the tail cut
    r = run_cli(
        "bounds", "--standard-pair", "--all", f"--sigma-min={value}",
        "--out-dir", str(tmp_path), timeout=60,
    )
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr.startswith("error: ") and "sigma_min must be finite" in r.stderr
    assert not (tmp_path / "bounds.csv").exists()


@pytest.mark.parametrize("method", [["rho"], ["norm-power", "--norm", "one"]], ids=["rho", "norm-power"])
def test_bounds_overflowing_sigma_min_exit_2(method, tmp_path):
    # e^(-sigma_min) overflows a float; this once exited 1 with a math range error
    r = run_cli(
        "bounds", "--standard-pair", "--method", *method, "--sigma-min", "-800",
        "--out-dir", str(tmp_path), timeout=60,
    )
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr.startswith("error: ") and "sigma_min = -800.0 overflows" in r.stderr
    assert not (tmp_path / "bounds.csv").exists()


@pytest.mark.parametrize("sigma_min", ["-400", "-300"])
def test_bounds_sweep_overflow_exit_2(sigma_min, tmp_path):
    # e^(-sigma_min) is finite, but H or the terms that bound it are not: the
    # sweeps once printed inf rows and numpy RuntimeWarnings, and exited 0
    r = run_cli(
        "bounds", "--standard-pair", "--all", "--sigma-min", sigma_min,
        "--out-dir", str(tmp_path), timeout=60,
    )
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr == (
        f"error: sigma_min = {float(sigma_min)} overflows the rho sweep (norm none, power 1): "
        f"the values it forms reach about e^{-4 * int(sigma_min)}, past the float range\n"
    )
    assert not (tmp_path / "bounds.csv").exists()
    for norm in ("one", "two", "frobenius", "infinity"):
        for power, code in (("2", 2), ("1", 0 if sigma_min == "-300" else 2)):
            r = run_cli(
                "bounds", "--standard-pair", "--method", "norm-power", "--norm", norm,
                "--power", power, "--sigma-min", sigma_min, "--out-dir", str(tmp_path), timeout=60,
            )
            assert r.returncode == code, (norm, power, r.stdout + r.stderr)
            assert "RuntimeWarning" not in r.stderr
            if code == 0:
                assert math.isfinite(float(r.stdout.splitlines()[1].split(",")[-1])), r.stdout
            else:
                assert r.stderr.startswith(f"error: sigma_min = {float(sigma_min)} overflows the "
                                           f"norm-power sweep (norm {norm}, power {power})")


@pytest.mark.parametrize("method", [["--all"], ["--method", "rho"]], ids=["all", "rho"])
def test_bounds_rho_sweep_past_the_float_range_exit_2(method, tmp_path):
    # the pair's exact coefficients pass the float range; their ratio once
    # raised OverflowError in math.copysign and exited 1 as an internal error
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"n": 1, "a": [1.0], "alpha": [1e170], "tau": 1.0}))
    r = run_cli("bounds", str(system), "--s0", "0", *method, "--out-dir", str(tmp_path / "out"),
                timeout=60)
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr.startswith("error: sigma_min = 0.0 overflows the rho sweep")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method", ["rho", "mori-kokame", "tissir-hmamed", "lemma3"])
def test_bounds_refuses_a_power_the_method_ignores(method, tmp_path, capsys):
    # --method rho --power 3 once wrote a rho,none,1 row and exited 0
    out = tmp_path / "out"
    assert cli.main(["bounds", "--standard-pair", "--method", method, "--power", "3",
                     "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --power 3 applies to --method norm-power only, not {method}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("method", ["rho", "mori-kokame"])
def test_bounds_refuses_all_with_a_method(method, tmp_path, capsys):
    # both once exited 0 with the 16-row table, the manifest recording the method
    out = tmp_path / "out"
    assert cli.main(["bounds", "--standard-pair", "--all", "--method", method, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: --all and --method {method} exclude each other: --all emits every method's rows\n"
    )
    assert captured.out == "" and not out.exists()


_NORM_TAKERS = "--method norm-power, --method mori-kokame or --method tissir-hmamed"
_SIGMA_TAKERS = "--all, --method rho, --method norm-power or --curves"


@pytest.mark.parametrize(
    "flags,refusal",
    [
        (["--method", "rho", "--norm", "two"], f"--norm two applies to {_NORM_TAKERS} only, not rho"),
        (["--method", "lemma3", "--norm", "frobenius"],
         f"--norm frobenius applies to {_NORM_TAKERS} only, not lemma3"),
        (["--all", "--norm", "one"], f"--norm one applies to {_NORM_TAKERS} only, not --all"),
        (["--all", "--power", "3", "--norm", "two"],
         "--power 3 applies to --method norm-power only, not --all"),
        (["--method", "rho", "--power", "1"], "--power 1 applies to --method norm-power only, not rho"),
        (["--method", "mori-kokame", "--norm", "one", "--sigma-min", "1"],
         f"--sigma-min 1.0 applies to {_SIGMA_TAKERS} only, not mori-kokame"),
        (["--method", "tissir-hmamed", "--norm", "two", "--sigma-min", "1"],
         f"--sigma-min 1.0 applies to {_SIGMA_TAKERS} only, not tissir-hmamed"),
        (["--method", "lemma3", "--sigma-min", "1"],
         f"--sigma-min 1.0 applies to {_SIGMA_TAKERS} only, not lemma3"),
        (["--method", "mori-kokame"], "--method mori-kokame needs --norm one|two|infinity"),
        (["--method", "tissir-hmamed"], "--method tissir-hmamed needs --norm one|two|infinity"),
    ],
    ids=["rho-norm", "lemma3-norm", "all-norm", "all-power-norm", "rho-power-1",
         "mori-kokame-sigma", "tissir-hmamed-sigma", "lemma3-sigma", "mori-kokame-no-norm",
         "tissir-hmamed-no-norm"],
)
def test_bounds_refuses_every_flag_its_method_ignores(flags, refusal, tmp_path, capsys):
    # the first three once exited 0 with the flag silently ignored
    out = tmp_path / "out"
    assert cli.main(["bounds", "--standard-pair", *flags, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {refusal}\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,used",
    [
        (["--method", "norm-power"], {"norm": "frobenius", "power": 1, "sigma_min": 0.0}),
        (["--method", "norm-power", "--norm", "frobenius", "--power", "1", "--sigma-min", "0"],
         {"norm": "frobenius", "power": 1, "sigma_min": 0.0}),
        (["--method", "rho"], {"norm": None, "power": None, "sigma_min": 0.0}),
        (["--method", "mori-kokame", "--norm", "one"], {"norm": "one", "power": None, "sigma_min": None}),
        (["--method", "mori-kokame", "--norm", "one", "--curves", "--sigma-min", "0.5"],
         {"norm": "one", "power": None, "sigma_min": 0.5}),
        (["--method", "lemma3"], {"norm": None, "power": None, "sigma_min": None}),
    ],
    ids=["norm-power", "norm-power-spelled-out", "rho", "mori-kokame", "mori-kokame-curves",
         "lemma3"],
)
def test_bounds_manifest_records_the_flag_values_used(flags, used, tmp_path, capsys):
    # a flag the command does not take is recorded as null; --curves takes
    # --sigma-min whatever the method
    out = tmp_path / "out"
    assert cli.main(["bounds", "--standard-pair", *flags, "--out-dir", str(out), "--quiet"]) == 0
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert {key: inputs[key] for key in used} == used


def test_bounds_norm_power_defaults_to_frobenius_power_1_from_0(tmp_path, capsys):
    tables = []
    for flags in ([], ["--norm", "frobenius", "--power", "1", "--sigma-min", "0"]):
        out = tmp_path / str(len(tables))
        assert cli.main(["bounds", "--standard-pair", "--method", "norm-power", *flags,
                         "--out-dir", str(out), "--quiet"]) == 0
        tables.append((out / "bounds.csv").read_text())
    assert tables[0] == tables[1]
    assert tables[0].splitlines()[1].startswith("norm-power,frobenius,1,0,")


def test_bounds_refused_curve_writes_no_file(tmp_path):
    # the bound passes at sigma_min = -300 but the rho curve's range check
    # refuses it; bounds.csv was once written before the curves, without a
    # manifest
    out = tmp_path / "out"
    r = run_cli(
        "bounds", "--standard-pair", "--method", "mori-kokame", "--norm", "one", "--curves",
        "--sigma-min=-300", "--out-dir", str(out),
    )
    assert r.returncode == 2, r.stdout + r.stderr
    assert "overflows the rho sweep" in r.stderr
    assert not out.exists() or not any(out.iterdir())


def test_bounds_non_finite_s0_exit_2(example_dir, tmp_path):
    r = run_cli(
        "bounds", str(example_dir / "system.json"), "--s0=nan", "--method", "norm-power",
        "--norm", "one", "--power", "1", "--out-dir", str(tmp_path),
    )
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr.startswith("error: ") and "s0 must be finite" in r.stderr
    assert not (tmp_path / "bounds.csv").exists()


def test_bounds_curves(tmp_path):
    r = run_cli(
        "bounds", "--standard-pair", "--method", "rho", "--curves",
        "--out-dir", str(tmp_path), "--quiet",
    )
    assert r.returncode == 0
    curve = (tmp_path / "curve_rho.csv").read_text().strip().splitlines()
    assert curve[0] == "sigma,omega_boundary"
    sigma0, omega0 = curve[1].split(",")
    assert float(sigma0) == 0.0 and abs(float(omega0) - 5.9763) < 2e-3


# --- simulate --------------------------------------------------------------------


def test_simulate_all_histories(example_dir, tmp_path):
    r = run_cli(
        "simulate", str(example_dir / "system.json"), "--history", "all",
        "--t-end", "40", "--out-dir", str(tmp_path), "--json",
    )
    assert r.returncode == 0, r.stderr
    for name in ("y01", "y02", "y03", "y04"):
        text = (tmp_path / f"sol_{name}.csv").read_text()
        assert text.startswith("t,y\n")
        assert (tmp_path / f"traj_{name}.csv").read_text().startswith("t,y,y1,y2\n")
    rates = json.loads(r.stdout)["decay_rates"]
    assert all(-0.55 <= rates[k] <= -0.45 for k in rates)


def test_simulate_constant_zero(example_dir, tmp_path):
    r = run_cli(
        "simulate", str(example_dir / "system.json"), "--history", "const:0",
        "--t-end", "5", "--out-dir", str(tmp_path),
    )
    assert r.returncode == 0
    body = (tmp_path / "sol_const.csv").read_text().strip().splitlines()[1:]
    assert all(float(line.split(",")[1]) == 0.0 for line in body)


def test_simulate_file_history(example_dir, tmp_path):
    pts = "\n".join(f"{t},{-t}" for t in [-2.5 + 5.0 * k / 40 for k in range(41)])
    hist = tmp_path / "hist.csv"
    hist.write_text("t,y\n" + pts + "\n")
    r = run_cli(
        "simulate", str(example_dir / "system.json"), "--history", f"file:{hist}",
        "--t-end", "10", "--out-dir", str(tmp_path),
    )
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "sol_custom.csv").exists()


@pytest.mark.parametrize(
    "fmt,header", [("%e", ""), ("%f", "t,y\n")], ids=["exponent-no-header", "fixed-with-header"]
)
def test_simulate_file_history_header_detection(fmt, header, example_dir, tmp_path):
    t = [-2.5 + 0.025 * k for k in range(101)]
    hist = tmp_path / "hist.csv"
    hist.write_text(header + "".join(f"{fmt},{fmt}\n" % (v, -v) for v in t))
    [(name, history)] = cli._resolve_histories(f"file:{hist}")
    assert name == "custom"
    assert history.times.size == 101 and history.times[0] == -2.5
    assert cli.main([
        "simulate", str(example_dir / "system.json"), "--history", f"file:{hist}",
        "--t-end", "5", "--out-dir", str(tmp_path / "out"), "--quiet",
    ]) == 0


@pytest.mark.parametrize("head", ["-2.6x,1.0", "t,0.0"], ids=["mistyped-time", "half-header"])
def test_simulate_file_history_first_row_with_a_number_is_data(head, example_dir, tmp_path, capsys):
    # a first row is a header only when none of its cells is a number, so a
    # mistyped time on line 1 is an error, not a header silently dropped
    hist = tmp_path / "hist.csv"
    hist.write_text(head + "\n" + "".join(f"{-0.1 * k:.1f},1.0\n" for k in range(25, -1, -1)))
    argv = ["simulate", str(example_dir / "system.json"), "--history", f"file:{hist}",
            "--t-end", "5", "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    cell = head.split(",")[0]
    assert capsys.readouterr().err == (
        f"error: history file {hist}, line 1: could not convert string to float: '{cell}'\n"
    )
    assert not (tmp_path / "out").exists()


def test_simulate_json_reports_step_and_steps(example_dir, tmp_path, capsys):
    argv = ["simulate", str(example_dir / "system.json"), "--history", "all",
            "--t-end", "10", "--t-start", "2", "--step", "0.3"]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "text")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(" = ")[0] for ln in lines] == [
        f"history {name}: decay rate over [2, 10]" for name in ("y01", "y02", "y03", "y04")
    ]

    assert cli.main(argv + ["--out-dir", str(tmp_path / "json"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    m = math.ceil(2.5 / 0.3)  # the step shrinks until it divides the delay
    assert payload["step"] == 2.5 / m
    assert payload["steps"] == {name: 4 * m for name in ("y01", "y02", "y03", "y04")}
    assert set(payload["decay_rates"]) == set(payload["steps"])


def test_simulate_infinite_t_end_exit_2(example_dir, tmp_path):
    r = run_cli(
        "simulate", str(example_dir / "system.json"), "--history", "y01", "--t-end=inf",
        "--out-dir", str(tmp_path),
    )
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr.startswith("error: ") and "t_end must be positive and finite" in r.stderr


@pytest.mark.parametrize(
    "flag,message",
    [
        ("--step=inf", "step must be positive and finite"),
        ("--step=nan", "step must be positive and finite"),
        ("--t-start=nan", "t_start must be finite, got nan"),
        ("--t-start=inf", "t_start must be finite, got inf"),
        ("--t-start=-inf", "t_start must be finite, got -inf"),
    ],
)
def test_simulate_non_finite_step_or_t_start_exit_2(flag, message, example_dir, tmp_path, capsys):
    # an infinite step once divided by zero (exit 1); a nan t_start read as a zero tail
    argv = ["simulate", str(example_dir / "system.json"), "--history", "y01", "--t-end", "10",
            flag, "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert not (tmp_path / "sol_y01.csv").exists()


def test_simulate_refuses_an_oversized_run_before_allocating(example_dir, tmp_path):
    # step 1e-7 to t = 40 at tau = 2.5 needs a state table of 400,000,001
    # rows of 3 values, 8.94 GiB, whose allocation failed as an internal
    # error (exit 1); the child runs under a 3 GB address-space limit, so a
    # run that allocated first would fail, not take the memory, and with one
    # BLAS thread, whose buffers then fit under that limit on any host
    argv = ["simulate", str(example_dir / "system.json"), "--history", "y01", "--t-end", "40",
            "--step", "1e-7", "--out-dir", str(tmp_path)]
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
        f"from midspec.cli import main; sys.exit(main({argv!r}))"
    )
    blas = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    r = run_python("-c", code, env=blas, timeout=60)
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr.startswith("error: a run to t_end = 40 at step 1e-07 needs 400000001 state rows of 3 values"), r.stderr
    assert not (tmp_path / "sol_y01.csv").exists()


def test_simulate_step_above_tau_and_empty_fit_window(example_dir, tmp_path, capsys):
    argv = ["simulate", str(example_dir / "system.json"), "--history", "y01", "--t-end", "10",
            "--out-dir", str(tmp_path)]
    assert cli.main(argv + ["--step", "1e300", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["step"] == 2.5 and payload["steps"] == {"y01": 4}

    assert cli.main(argv + ["--t-start", "100"]) == 0
    out = capsys.readouterr().out
    assert "= n/a (no delay interval lies in [100, 10])" in out
    assert "zero tail" not in out


def test_simulate_t_end_below_one_step_takes_one_window(example_dir, tmp_path, capsys):
    # t_end / tau rounded to no window, and numpy refused a negative dimension
    argv = ["simulate", str(example_dir / "system.json"), "--history", "y01", "--t-end", "1e-300",
            "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert "decay rate over [10, 1e-300] = n/a (" in capsys.readouterr().out
    assert (tmp_path / "sol_y01.csv").read_text() == "t,y\n0,1\n"
    assert (tmp_path / "traj_y01.csv").read_text() == "t,y,y1,y2\n0,1,0,0\n"


def test_simulate_warns_when_the_step_outruns_the_system(example_dir, tmp_path, capsys):
    # h rho(A0) is 3.37 at h = tau = 2.5, and 0.0067 at the default tau/500
    argv = ["simulate", str(example_dir / "system.json"), "--history", "y01", "--t-end", "10",
            "--out-dir", str(tmp_path), "--json"]
    assert cli.main(argv + ["--step", "1e300"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["step"] == 2.5
    assert len(payload["warnings"]) == 1 and "is 3.37 > 1" in payload["warnings"][0]
    assert captured.err == f"warning: {payload['warnings'][0]}\n"

    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["warnings"] == [] and captured.err == ""


def test_simulate_unknown_history_exit_2(example_dir, tmp_path):
    r = run_cli(
        "simulate", str(example_dir / "system.json"), "--history", "bogus",
        "--out-dir", str(tmp_path),
    )
    assert r.returncode == 2


@pytest.mark.parametrize(
    "history,window", [("y01", 23), ("const:1e308", 1)], ids=["unstable", "huge-history"]
)
def test_simulate_overflow_exit_2(history, window, example_dir, tmp_path):
    # y' = 30 y leaves the float range at t = 23.7, in window 23 (this once
    # exited 1 as an internal error); the order-3 design from the constant
    # 1e308 overflows in window 1, where it once also printed numpy's
    # RuntimeWarnings from interpolating the delayed state
    if history == "y01":
        system = tmp_path / "unstable.json"
        system.write_text('{"n": 1, "a": [-30.0], "alpha": [0.0], "tau": 1.0}')
    else:
        system = example_dir / "system.json"
    r = run_cli("simulate", str(system), "--history", history, "--out-dir", str(tmp_path / "out"))
    name = history.split(":")[0]
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr == (
        f"error: history {name}: state became non-finite in window {window}: "
        "the solution leaves the float range before --t-end 40\n"
    )
    assert not (tmp_path / "out" / f"sol_{name}.csv").exists()


# --- verify ----------------------------------------------------------------------


def test_verify_passes_on_design(example_dir, tmp_path):
    r = run_cli("verify", str(example_dir / "system.json"))
    assert r.returncode == 0, r.stdout + r.stderr
    assert "PASS multiplicity" in r.stdout
    assert "PASS dominance" in r.stdout


def test_verify_detects_perturbation(example_dir, tmp_path):
    doc = json.loads((example_dir / "system.json").read_text())
    doc["a"][0] += 0.01
    bad = tmp_path / "perturbed.json"
    bad.write_text(json.dumps(doc))
    r = run_cli("verify", str(bad), "--s0", "-0.5")
    assert r.returncode == 1
    assert "FAIL multiplicity" in r.stdout


@pytest.mark.parametrize("mode", ["--quiet", "--json"])
def test_verify_names_what_did_not_pass_on_stderr(mode, example_dir, tmp_path):
    # --quiet once left an exit 1 unexplained on both streams; the --json
    # payload stays the only thing on stdout
    system = str(example_dir / "system.json")
    r = run_cli("verify", system, mode)
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stderr == ""
    doc = json.loads((example_dir / "system.json").read_text())
    doc["a"][0] += 0.01
    bad = tmp_path / "perturbed.json"
    bad.write_text(json.dumps(doc))
    r = run_cli("verify", str(bad), "--s0", "-0.5", mode)
    assert r.returncode == 1
    failed = ["multiplicity", "normalization-universality", "dominance"]
    assert [line.split(":")[0] for line in r.stderr.splitlines()] == [f"FAIL {c}" for c in failed]
    if mode == "--quiet":
        assert r.stdout == ""
    else:
        payload = json.loads(r.stdout)
        assert [c["name"] for c in payload["checks"] if c["passed"] is False] == failed


def test_verify_reaches_a_dominance_verdict_near_overflow(tmp_path):
    # Newton from a certificate box's centre heads to where e^(-tau z) overflows
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"n": 1, "a": [2.7935980368783637],
                                  "alpha": [0.9364441314744818], "tau": 3.6268159453484077}))
    r = run_cli("verify", str(system), "--s0", "-1.0")
    assert r.returncode == 1
    assert "FAIL dominance" in r.stdout
    assert "internal error" not in r.stderr


_VERIFY_CHECKS = ["multiplicity", "trace-identity", "normalization-universality", "dominance"]


@pytest.mark.parametrize("n", [1, 3, 8])
def test_verify_runs_exactly_the_four_checks(n, tmp_path, capsys):
    assert cli.main(["design", "--n", str(n), "--s0", "-0.2", "--tau", "1.5",
                     "--out-dir", str(tmp_path), "--quiet"]) == 0
    system = str(tmp_path / "system.json")
    assert cli.main(["verify", system]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = [line.split(":")[0] for line in lines]
    assert labels == [f"PASS {c}" for c in _VERIFY_CHECKS] + ["verdict"]
    assert cli.main(["verify", system, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in payload["checks"]] == _VERIFY_CHECKS


def test_verify_rejects_a_modulus_cut_beyond_1e12(tmp_path, capsys):
    # s0 = 0 is no root here; its modulus cut of about 1e13 is never needed,
    # as a system that is not the MID design is refused without a box
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"n": 1, "a": [1e13], "alpha": [0.5], "tau": 1}))
    assert cli.main(["verify", str(system), "--s0", "0"]) == 1
    err = capsys.readouterr().err
    assert "FAIL dominance: strictly dominant: False, not the MID design" in err
    assert "modulus cut" not in err


def test_verify_off_the_design_says_no_without_numpy(tmp_path):
    # the order-2 design with a[0] scaled by 1 + 1e-6 has roots right of s0;
    # a root search once passed its dominance check, and loaded numpy for it
    assert cli.main(["design", "--n", "2", "--s0", "-0.5", "--tau", "2.5",
                     "--out-dir", str(tmp_path), "--quiet"]) == 0
    doc = json.loads((tmp_path / "system.json").read_text())
    doc["a"][0] *= 1.0 + 1e-6
    bad = tmp_path / "perturbed.json"
    bad.write_text(json.dumps(doc))
    r = run_python(
        "-c",
        "import sys; from midspec import cli; "
        f"code = cli.main(['verify', {str(bad)!r}, '--s0', '-0.5']); "
        "print(code, 'numpy' in sys.modules)",
    )
    assert r.stdout.splitlines()[-1] == "1 False", r.stdout + r.stderr
    assert "PASS dominance" not in r.stdout
    assert ("FAIL dominance: strictly dominant: False, not the MID design (max relative "
            "deviation 4.271e-07), so no root has multiplicity 4\n") in r.stderr


def test_verify_inconclusive_exit_3(example_dir, tmp_path, monkeypatch, capsys):
    from midspec import spectral

    def inconclusive(*args, **kwargs):
        raise spectral.LocalizationError("root remains on the boundary")

    monkeypatch.setattr(spectral, "certify_dominance", inconclusive)
    assert cli.main(["verify", str(example_dir / "system.json")]) == 3
    captured = capsys.readouterr()
    out = captured.out
    assert "INCONCLUSIVE dominance: root remains on the boundary" in out
    assert "verdict: inconclusive" in out
    assert captured.err == "INCONCLUSIVE dominance: root remains on the boundary\n"

    # a check that really failed outranks an inconclusive one
    doc = json.loads((example_dir / "system.json").read_text())
    doc["a"][0] += 0.01
    bad = tmp_path / "perturbed.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify", str(bad), "--s0", "-0.5"]) == 1
    assert "FAIL multiplicity" in capsys.readouterr().out


def test_verify_says_inconclusive_once_and_names_the_disc(tmp_path, capsys):
    # order 11 is past what the disc certificate can decide in binary64; the
    # multiplicity check fails as well, so the exit is 1
    assert cli.main(["design", "--n", "11", "--s0", "-0.5", "--tau", "2.5",
                     "--out-dir", str(tmp_path), "--quiet"]) == 0
    assert cli.main(["verify", str(tmp_path / "system.json")]) == 1
    err = capsys.readouterr().err
    line = next(ln for ln in err.splitlines() if "dominance" in ln)
    assert line.startswith("INCONCLUSIVE dominance: F_11 disc certificate: the disc at ")
    assert line.lower().count("inconclusive") == 1


def test_spectrum_inconclusive_names_its_rectangle(tmp_path, capsys):
    # the default window's right edge crosses the rounding disc around s0
    assert cli.main(["design", "--n", "6", "--s0", "-0.5", "--tau", "0.5",
                     "--out-dir", str(tmp_path / "design"), "--quiet"]) == 0
    assert cli.main(["spectrum", str(tmp_path / "design" / "system.json"),
                     "--out-dir", str(tmp_path / "spectrum")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("inconclusive: ") and "Rectangle(" in err
    assert err.lower().count("inconclusive") == 1


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_verify_certifies_high_orders(n, tmp_path, capsys):
    # the exact design's disc certificate decides dominance at every order
    # (a root search on the stored rounding cluster was inconclusive here)
    assert cli.main(["design", "--n", str(n), "--s0", "-0.5", "--tau", "2.5",
                     "--out-dir", str(tmp_path), "--quiet"]) == 0
    assert cli.main(["verify", str(tmp_path / "system.json")]) == 0
    out = capsys.readouterr().out
    line = next(ln for ln in out.splitlines() if ln.startswith("PASS dominance: "))
    assert "every other root has Re s <= s0 - 0.4 (exact MID design, " in line
    assert out.endswith("verdict: all checks passed\n")
    assert cli.main(["verify", str(tmp_path / "system.json"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["certificate"]["gap"] == pytest.approx(0.4)
    assert line.endswith(f", {payload['certificate']['discs']} discs)")


def test_verify_searches_a_perturbed_system(example_dir, tmp_path, capsys):
    # off the design there is no certificate: the verdict comes from find_roots
    doc = json.loads((example_dir / "system.json").read_text())
    doc["a"][0] += 0.01
    bad = tmp_path / "perturbed.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify", str(bad), "--s0", "-0.5", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"] is None
    dominance = next(c for c in payload["checks"] if c["name"] == "dominance")
    assert "exact MID design" not in dominance["detail"]


def test_verify_missing_file_exit_2(tmp_path):
    r = run_cli("verify", str(tmp_path / "nope.json"))
    assert r.returncode == 2


def test_verify_takes_no_out_dir(example_dir, tmp_path, capsys):
    # verify writes no file, so it has no output directory to be told of
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", str(example_dir / "system.json"), "--out-dir", str(tmp_path / "v")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out-dir" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize(
    "case", ["one-column-history", "list-system", "scalar-coefficients", "design-s0-overflow",
             "verify-s0-overflow", "verify-s0-nan", "design-s0-nan", "design-s0-inf",
             "design-tau-inf", "history-nan", "history-inf", "spectrum-s0-nan",
             "spectrum-s0-inf", "spectrum-re-max-nan", "history-file-text", "history-file-nan",
             "history-file-inf", "bounds-system-and-standard-pair", "bounds-standard-pair-s0"],
)
def test_invalid_input_exit_2(case, example_dir, tmp_path, capsys):
    system = str(example_dir / "system.json")
    doc = json.loads((example_dir / "system.json").read_text())
    bad = tmp_path / "bad.json"
    if case == "one-column-history":
        hist = tmp_path / "one.csv"
        hist.write_text("".join(f"{-0.1 * k}\n" for k in range(26)))
        argv = ["simulate", system, "--history", f"file:{hist}", "--t-end", "5"]
    elif case == "list-system":
        bad.write_text("[1, 2]")
        argv = ["verify", str(bad)]
    elif case == "scalar-coefficients":
        bad.write_text(json.dumps(doc | {"a": 5}))
        argv = ["verify", str(bad)]
    elif case == "design-s0-overflow":
        argv = ["design", "--n", "3", "--s0", "400", "--tau", "2.5"]
    elif case == "verify-s0-overflow":
        argv = ["verify", system, "--s0", "-400"]
    elif case == "verify-s0-nan":
        argv = ["verify", system, "--s0=nan"]
    elif case in ("design-s0-nan", "design-s0-inf"):
        argv = ["design", "--n", "3", f"--s0={case[-3:]}", "--tau", "2.5"]
    elif case in ("history-nan", "history-inf"):
        argv = ["simulate", system, f"--history=const:{case[-3:]}", "--t-end", "5"]
    elif case in ("spectrum-s0-nan", "spectrum-s0-inf"):
        argv = ["spectrum", system, f"--s0={case[-3:]}"]
    elif case == "spectrum-re-max-nan":
        argv = ["spectrum", system, "--re-max=nan"]
    elif case.startswith("history-file-"):
        # a header and 26 rows; the bad cell is on line 8
        rows = [f"{-0.1 * k:.1f},1.0" for k in range(25, -1, -1)]
        rows[6] = {"text": "-1.9,abc", "nan": "-1.9,nan", "inf": "inf,1.0"}[case[13:]]
        hist = tmp_path / "hist.csv"
        hist.write_text("t,y\n" + "\n".join(rows) + "\n")
        argv = ["simulate", system, "--history", f"file:{hist}", "--t-end", "5"]
    elif case == "bounds-system-and-standard-pair":
        argv = ["bounds", system, "--standard-pair", "--all"]
    elif case == "bounds-standard-pair-s0":
        argv = ["bounds", "--standard-pair", "--s0", "0.3", "--all"]
    else:
        argv = ["design", "--n", "3", "--s0", "-0.5", "--tau=inf"]
    if argv[0] != "verify":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: "), err
    if case == "verify-s0-nan":
        assert "s0 must be finite" in err and "overflows" not in err
    elif case in ("design-s0-nan", "design-s0-inf", "spectrum-s0-nan", "spectrum-s0-inf"):
        assert f"shift s0 must be finite, got {case[-3:]}" in err, err
    elif case in ("history-nan", "history-inf"):
        assert err == f"error: constant history needs finite parameters, got ({case[-3:]},)\n", err
    elif case == "spectrum-re-max-nan":
        assert "rectangle bounds must be finite, got (" in err and "nan" in err, err
    elif case == "design-tau-inf":
        assert "delay tau must be finite, got inf" in err, err
    elif case.startswith("history-file-"):
        cause = {
            "text": "could not convert string to float: 'abc'",
            "nan": "time and value must be finite, got -1.9, nan",
            "inf": "time and value must be finite, got inf, 1.0",
        }[case[13:]]
        assert err == f"error: history file {tmp_path / 'hist.csv'}, line 8: {cause}\n", err
    elif case == "bounds-system-and-standard-pair":
        # the system file was once dropped, yet listed under the manifest's inputs
        assert err == f"error: --standard-pair replaces the system file; got both --standard-pair and {system}\n"
        assert not (tmp_path / "out").exists()
    elif case == "bounds-standard-pair-s0":
        assert err == "error: --s0 shifts a system file; the standard pair is normalized already\n", err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["spectrum"])
def test_contour_too_long_exit_2_unsampled(command, example_dir, tmp_path, capsys):
    # a contour of more than a million initial samples is refused before any
    # is allocated: spectrum on a region 4e5 tall at tau = 2.5
    import midspec.spectral  # noqa: F401  (imported before the trace starts)

    argv = [command, str(example_dir / "system.json"), "--im-min=-2e5", "--im-max=2e5",
            "--out-dir", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the contour of Rectangle("), captured.err
    assert captured.err.endswith(
        " needs about 1.67e+06 samples, more than 1e+06: the region is too tall\n"
    ), captured.err
    assert peak < 4_000_000, peak  # one array of the samples would take 16 MB
    assert not (tmp_path / "out").exists()


def test_spectrum_s0_overflow_exit_2(example_dir, tmp_path):
    # the default region Re z >= s0 - 5 makes e^(-tau Re z) overflow
    r = run_cli("spectrum", str(example_dir / "system.json"), "--s0", "-400",
                "--out-dir", str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: "), r.stderr
    assert "overflows" in r.stderr
    assert "RuntimeWarning" not in r.stderr


# --- manifest ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--n", "2", "--s0", "-0.3", "--tau", "1.5"],
        ["spectrum", "{system}"],
        ["bounds", "{system}", "--method", "mori-kokame", "--norm", "one"],
        ["simulate", "{system}", "--history", "all", "--t-end", "5"],
    ],
    ids=["design", "spectrum", "bounds", "simulate"],
)
def test_manifest_lists_outputs_and_parsed_inputs(argv, example_dir, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [a.format(system=example_dir / "system.json") for a in argv]
    argv += ["--out-dir", str(out), "--quiet"]
    assert cli.main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    created = {str(p) for p in out.rglob("*") if p.name != "manifest.json"}
    assert manifest["command"] == argv[0]
    assert len(manifest["outputs"]) == len(created) and set(manifest["outputs"]) == created
    parsed = vars(cli.build_parser().parse_args(argv))
    for key in ("command", "func", "out_dir", "json", "quiet"):
        del parsed[key]
    assert parsed and set(parsed) <= set(manifest["inputs"])
    for key, value in parsed.items():
        if value is not None:  # a value the command resolves itself may replace None
            assert manifest["inputs"][key] == value, key
    if argv[0] == "spectrum":
        assert manifest["inputs"]["s0"] == pytest.approx(-0.5)
        assert set(manifest["inputs"]["region"]) == {"re_min", "re_max", "im_min", "im_max"}


def test_verify_creates_no_file(example_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["verify", str(example_dir / "system.json"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert list(tmp_path.iterdir()) == []


# --- round trip -------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_design_spectrum_verify_round_trip(n, tmp_path):
    rng = random.Random(100 + n)
    s0 = rng.uniform(-1.0, 0.5)
    tau = rng.uniform(0.5, 3.0)
    r = run_cli(
        "design", "--n", str(n), "--s0", f"{s0:.6f}", "--tau", f"{tau:.6f}",
        "--out-dir", str(tmp_path),
    )
    assert r.returncode == 0, r.stderr
    r = run_cli("spectrum", str(tmp_path / "system.json"), "--out-dir", str(tmp_path), "--json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["strictly_dominant"] is True
    assert abs(doc["spectral_abscissa"] - s0) < 1e-6
    r = run_cli("verify", str(tmp_path / "system.json"))
    assert r.returncode == 0, r.stdout


# --- imports ----------------------------------------------------------------------


def test_library_import_loads_no_scipy():
    # no module of the package imports scipy, the sampled history's spline
    # included; the design is exact in Python integers, so no rational
    # arithmetic loads
    r = run_python(
        "-c",
        "import sys, midspec.cli, midspec.quasipoly, midspec.spectral, midspec.bounds, "
        "midspec.sim; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
        "'fractions' in sys.modules, 'decimal' in sys.modules)",
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[] False False"


def test_version_loads_no_layer():
    # LocalizationError lives in the package itself, so --version loads no layer
    r = run_python(
        "-c",
        "import sys; from midspec import cli\n"
        "try:\n    cli.main(['--version'])\nexcept SystemExit as exc:\n    code = exc.code\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('midspec.')))",
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 ['midspec.cli']"


def test_package_import_loads_no_submodule():
    # a bare import of the package loads none of its layers, nor numpy
    r = run_python(
        "-c",
        "import sys, midspec; print(sorted(m for m in sys.modules "
        "if m.startswith('midspec.') or m.split('.')[0] == 'numpy'))",
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_certification_loads_no_bounds(command, example_dir, tmp_path):
    # the certification box comes from the modulus cut, not the bound sweeps
    argv = [command, str(example_dir / "system.json"), "--quiet"]
    if command == "spectrum":
        argv += ["--out-dir", str(tmp_path)]
    r = run_python(
        "-c",
        "import sys; from midspec import cli; "
        f"code = cli.main({argv!r}); "
        "print(code, 'midspec.bounds' in sys.modules)",
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "0 False"


_NO_SWEEPS = ["midspec.bounds", "midspec.sim", "scipy"]
# standard-library modules that a numpy-free command has no use for: the
# value types are built without dataclasses (which loads inspect), and the
# manifest timestamp comes from time
_NO_INTROSPECTION = ["dataclasses", "inspect", "datetime"]


@pytest.mark.parametrize(
    "argv,absent",
    [
        (["design", "--n", "3", "--s0", "-0.5", "--tau", "2.5"], ["numpy"] + _NO_INTROSPECTION),
        (["spectrum", "{system}"], _NO_SWEEPS),
        (["verify", "{system}"], _NO_SWEEPS + ["numpy"] + _NO_INTROSPECTION),
        (["simulate", "{system}", "--history", "y01", "--t-end", "5"],
         ["midspec.spectral", "midspec.bounds", "scipy"]),
        (["simulate", "{system}", "--history", "file:{history}", "--t-end", "5"],
         ["midspec.spectral", "midspec.bounds", "scipy"]),
        (["bounds", "{system}", "--method", "mori-kokame", "--norm", "one"],
         ["midspec.spectral", "midspec.sim", "scipy"]),
    ],
    ids=["design", "spectrum", "verify", "simulate", "simulate-file", "bounds"],
)
def test_command_import_matrix(argv, absent, example_dir, tmp_path):
    # each command loads only the layers it runs; a package present in
    # sys.modules means some module of it was imported
    history = tmp_path / "history.csv"
    history.write_text("".join(f"{t!r},{math.cos(t)!r}\n" for t in np.linspace(-2.5, 0.0, 201).tolist()))
    argv = [a.format(system=example_dir / "system.json", history=history) for a in argv] + ["--quiet"]
    if argv[0] != "verify":
        argv += ["--out-dir", str(tmp_path)]
    r = run_python(
        "-c",
        "import sys; from midspec import cli; "
        f"code = cli.main({argv!r}); "
        f"print(code, [m for m in {absent!r} if m in sys.modules])",
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "0 []"


def test_design_loads_only_the_standard_library(tmp_path):
    # the design is exact integer arithmetic: no numpy, no other midspec layer
    r = run_python(
        "-c",
        "import sys; before = set(sys.modules); from midspec import cli; "
        f"code = cli.main(['design', '--n', '8', '--s0', '-0.5', '--tau', '2.5', "
        f"'--out-dir', {str(tmp_path)!r}, '--quiet']); "
        "new = set(sys.modules) - before; "
        "print(code, sorted(m for m in new if m.startswith('midspec')), "
        "sorted({m.split('.')[0] for m in new} - set(sys.stdlib_module_names) - {'midspec'}))",
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "0 ['midspec', 'midspec.cli', 'midspec.quasipoly'] []"


@pytest.mark.parametrize("mode", ["command", "library"])
def test_closed_stdout_exits_141_with_nothing_on_stderr(mode, tmp_path):
    # the read end is closed before the child writes: the command ends with
    # the status a shell reports for SIGPIPE, without an "internal error" or
    # "Exception ignored" line, and a library caller keeps its SIGPIPE handling
    argv = ["bounds", "--standard-pair", "--method", "lemma3", "--out-dir", str(tmp_path)]
    if mode == "command":
        args = ["-m", "midspec.cli", *argv]
    else:
        args = ["-c", "import signal, sys; from midspec import cli; "
                      "before = signal.getsignal(signal.SIGPIPE); "
                      f"code = cli.main({argv!r}); "
                      "print(code, signal.getsignal(signal.SIGPIPE) == before, file=sys.stderr)"]
    read, write = os.pipe()
    os.close(read)
    try:
        r = run_python(*args, stdout=write, timeout=60)
    finally:
        os.close(write)
    if mode == "command":
        assert (r.returncode, r.stderr) == (141, "")
    else:
        assert (r.returncode, r.stderr) == (0, "141 True\n")


def test_no_module_imports_a_private_name_of_another():
    # a module's _-prefixed names are its own: no module of the package
    # imports one from another, or reads one off another; the value-type
    # base _Record is the one shared
    import ast

    package = Path(midspec.__file__).resolve().parent
    layers = {path.stem for path in package.glob("*.py")} - {"__init__"}
    crossings = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("midspec")):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in layers:
                names = [node.attr]
            else:
                continue
            crossings += [f"{path.name}: {name}" for name in names
                          if name.startswith("_") and not name.endswith("__") and name != "_Record"]
    assert crossings == []


def test_localization_error_is_an_outcome_only():
    # LocalizationError says a count is inconclusive; spectral moves an
    # untrusted contour with its own private signal, so only cli catches it,
    # and the winding count raises none
    import ast

    def names_it(node):
        return any(getattr(sub, "id", getattr(sub, "attr", None)) == "LocalizationError"
                   for sub in ast.walk(node))

    package = Path(midspec.__file__).resolve().parent
    catchers = [path.name for path in sorted(package.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ExceptHandler) and node.type and names_it(node.type)]
    assert set(catchers) == {"cli.py"}
    tree = ast.parse((package / "spectral.py").read_text())
    winding = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "_winding")
    assert not [node for node in ast.walk(winding)
                if isinstance(node, ast.Raise) and node.exc and names_it(node.exc)]


# --- packaging ------------------------------------------------------------------


def test_test_imports_are_declared():
    # every third-party module the tests import is a dependency of the
    # package or of its "test" extra in pyproject.toml
    import ast
    import re

    tomllib = pytest.importorskip("tomllib")
    tests = Path(__file__).resolve().parent
    project = tomllib.loads((tests.parent / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project.get("optional-dependencies", {}).get("test", [])
    declared = {re.match(r"[\w.-]+", r).group().lower().replace("-", "_") for r in requirements}
    local = {"midspec"} | {path.stem for path in tests.glob("*.py")}
    imported = set()
    for path in tests.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - local
    assert third_party, "no third-party import found under tests/"
    assert third_party <= declared, sorted(third_party - declared)
