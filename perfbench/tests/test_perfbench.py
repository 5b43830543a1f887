"""The benchmark's own tests: printed metrics match BENCHMARK.json, and
every correctness check fires on a deliberately corrupted output.

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import BENCH, ROOT

import checks  # noqa: E402
import run  # noqa: E402

RUN = os.path.join(BENCH, "run.py")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def _run(*args):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=ROOT, capture_output=True, text=True, timeout=600
    )


# ----------------------------------------------------------------------
# the runner's metric tables against BENCHMARK.json
def test_spec_names_workloads_and_metrics(spec):
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert _units(spec["end_to_end"]) == dict(run.END_TO_END)
    assert _units(spec["per_layer"]) == dict(run.PER_LAYER)
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_spec_metrics(spec, workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert any(line.startswith("fingerprint ") for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(expected)
    values = [v["value"] for v in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if trace == "0":
        assert all(v > 0 for v in values)


def test_fails_without_library_sources(tmp_path):
    """In a directory holding only the benchmark, the run must fail
    without printing a result."""
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "vertex_batch",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# each check passes on a good output and fires on a corrupted one
@pytest.fixture(scope="module")
def relaxed():
    """A drifting, anisotropic electron state advanced by one collision
    step on a small mesh: the good output the conservation check sees."""
    from repro.core import ImplicitLandauSolver, LandauOperator, Moments, SpeciesSet, electron
    from repro.core.maxwellian import maxwellian_rz
    from repro.fem import FunctionSpace, Mesh

    spc = SpeciesSet([electron()])
    vmax = 3.0 * spc[0].thermal_velocity
    fs = FunctionSpace(Mesh.structured(3, 3, r_max=vmax, z_min=-vmax, z_max=vmax), order=3)
    f0 = fs.interpolate(lambda r, z: maxwellian_rz(r, z - 0.2, 1.0, 0.8))
    f1 = ImplicitLandauSolver(LandauOperator(fs, spc), rtol=1e-10).step([f0.copy()], 0.1)[0]
    return fs, spc, Moments(fs, spc), f0[None, None], f1[None, None]


def test_conservation_passes_on_a_collision_step(relaxed):
    fs, spc, mom, before, after = relaxed
    assert checks.conservation(mom, spc, before, after) == []


def test_conservation_fires_on_removed_mass(relaxed):
    fs, spc, mom, before, after = relaxed
    failures = checks.conservation(mom, spc, before, after * (1.0 - 1e-6))
    assert any("density" in f for f in failures)


def test_conservation_fires_on_momentum_and_energy_change(relaxed):
    from repro.core.maxwellian import maxwellian_rz

    fs, spc, mom, before, after = relaxed
    n = mom.species_moments(0, before[0, 0]).density
    for shifted, word in (
        (lambda r, z: maxwellian_rz(r, z - 0.3, 1.0, 0.8), "momentum"),
        (lambda r, z: maxwellian_rz(r, z - 0.2, 1.0, 0.9), "energy"),
    ):
        g = fs.interpolate(shifted)
        g *= n / mom.species_moments(0, g).density  # keep the density
        failures = checks.conservation(mom, spc, before, g[None, None])
        assert any(word in f for f in failures), failures
        assert not any("density" in f for f in failures)


def test_convergence_and_agreement_checks():
    assert checks.all_converged([True, True]) == []
    assert checks.all_converged([True, False]) != []
    x = np.linspace(1.0, 2.0, 10)
    assert checks.agreement(x * (1 + 1e-9), x, 1e-7, "v") == []
    assert checks.agreement(x * (1 + 1e-5), x, 1e-7, "v") != []
    assert checks.finite(x, "v") == []
    assert checks.finite(np.append(x, np.nan), "v") != []


def test_ensemble_checks():
    assert checks.member_mass(6.0, 1.0, 5.0, "m") == []
    assert checks.member_mass(6.0 - 1e-6, 1.0, 5.0, "m") != []
    assert checks.member_quenched(2.5, 0.3, 1.0, 0.8, "m") == []
    assert checks.member_quenched(float("nan"), 0.3, 1.0, 0.8, "m") != []
    assert checks.member_quenched(2.5, 0.9, 1.0, 0.8, "m") != []
    assert checks.bitwise_equal(["a", "b"], ["a", "b"], "r") == []
    assert checks.bitwise_equal(["a", "b"], ["a", "c"], "r") != []


def test_thermal_quench_checks():
    injected = np.array([0.0, 0.0, 2.5, 5.0])
    n_e = 1.0 + injected
    assert checks.density_ramp(n_e, injected, 5.0, 1e-6, 1e-3) == []
    lost = n_e.copy()
    lost[2] -= 1e-3
    assert checks.density_ramp(lost, injected, 5.0, 1e-6, 1e-3) != []
    assert checks.density_ramp(n_e[:-1], injected[:-1], 5.0, 1e-6, 1e-3) != []
    assert checks.temperature_collapse([1.0, 0.3], 0.5) == []
    assert checks.temperature_collapse([1.0, 0.7], 0.5) != []
    t = np.arange(6) * 0.5
    assert checks.macro_steps(t, 0.5, 5) == []
    assert checks.macro_steps(t[:-1], 0.5, 5) != []
    assert checks.macro_steps(np.append(t[:-1], 2.3), 0.5, 5) != []


def test_layer_sum_check():
    parts = {"batch.step": 0.010, "operator.fields": 0.004, "band.factor": 0.017}
    assert checks.layer_sum(parts, 0.0311, 2e-4) == []
    # a layer whose time went missing, or was counted twice
    assert checks.layer_sum({**parts, "band.factor": 0.0}, 0.0311, 2e-4) != []
    assert checks.layer_sum({**parts, "band.solve": 0.004}, 0.0311, 2e-4) != []
