"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import contextlib
import io
import json
import sys
from pathlib import Path

import checks
import run
import tracing
from workloads import HISTORIES, WORKLOADS

sys.path.insert(0, str(run.SRC))
from midspec import cli  # noqa: E402


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: why for name, (_, why) in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.PER_LAYER
    ]


def test_traced_and_untraced_runs_write_identical_outputs(tmp_path):
    first = run.traced_run("showcase-n3", seed=3, seconds=0, work=tmp_path)
    assert first.failures == []
    assert first.mismatched == []

    # the counters later changes claim against repeat exactly across runs
    second = run.traced_run("showcase-n3", seed=3, seconds=0, work=tmp_path)
    keys = ["quasipoly.eval_points", "sim.steps", "sim.csv_bytes", "spectral.roots_located",
            "bounds.bound_norm_power_calls"]
    a, b = (tracing.layer_values(r.tracers[0]) for r in (first, second))
    assert [a[k] for k in keys] == [b[k] for k in keys]
    assert a["sim.steps"] == 4 * 16 * 500


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def test_design_oracle_rejects_a_broken_multiplicity(tmp_path):
    _cli("design", "--n", "3", "--s0", "-0.3", "--tau", "2.5", "--out-dir", str(tmp_path))
    assert checks.check_design(tmp_path, 3, -0.3, 2.5) is None
    assert checks.check_design(tmp_path, 3, -0.3001, 2.5) is not None
    system = tmp_path / "system.json"
    doc = json.loads(system.read_text())
    doc["alpha"][0] *= 1.0 + 1e-6
    system.write_text(json.dumps(doc))
    assert checks.check_design(tmp_path, 3, -0.3, 2.5) is not None


def test_simulation_oracle_rejects_a_trajectory_of_another_system(tmp_path):
    _cli("design", "--n", "2", "--s0", "-0.4", "--tau", "1.0", "--out-dir", str(tmp_path))
    system = tmp_path / "system.json"
    out = tmp_path / "sim"
    stdout = _cli("simulate", str(system), "--history", "all", "--t-end", "20", "--out-dir", str(out))
    verdict, rates = checks.check_simulate(out, stdout, system, HISTORIES, 20.0)
    assert verdict is None and len(rates) == len(HISTORIES)

    doc = json.loads(system.read_text())
    doc["a"][0] *= 1.001
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    verdict, _ = checks.check_simulate(out, stdout, other, HISTORIES, 20.0)
    assert "residual" in verdict


def test_table_and_verify_oracles(tmp_path):
    rows = ["method,norm,power,sigma_min,value"]
    for table in (checks.TABLE_VALUES, checks.LEMMA3_VALUES):
        rows += [f"{m},{n},{p},0,{v}" for (m, n, p), v in table.items()]
    csv = tmp_path / "bounds.csv"
    csv.write_text("\n".join(rows) + "\n")
    assert checks.check_bounds(tmp_path) is None
    csv.write_text("\n".join(rows).replace(",6.0803", ",6.0823") + "\n")
    assert "6.0823" in checks.check_bounds(tmp_path)

    good = "PASS multiplicity: ok\nPASS dominance: ok\nverdict: all checks passed\n"
    assert checks.check_verify(good) is None
    assert checks.check_verify(good.replace("PASS dominance", "FAIL dominance")) is not None
