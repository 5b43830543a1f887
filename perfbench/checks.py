"""Correctness checks run after each workload's timed part.

Every check tests a physical property or compares against an independent
computation; none compares against a stored copy of earlier output.  A
check returns a list of failure messages (empty when it passes), so the
runner can report all of them and the tests can corrupt an output and
see the matching check fire.
"""

from __future__ import annotations

import math

import numpy as np

# Density is conserved by construction: the test function 1 has zero
# gradient, so both weak-form terms vanish and only round-off remains.
DENSITY_RTOL = 1e-11
# Momentum and energy are conserved only to the accuracy of the Q2/Q3
# quadrature and of the truncated velocity domain.  The largest drifts
# per step seen on the benchmark meshes are 3e-8 of the momentum scale
# (e-D exchange on the 4x4 mesh) and 8e-10 of the energy; the bound
# leaves a factor of 30.
MOMENT_RTOL = 1e-6


def conservation(moments, species, before: np.ndarray, after: np.ndarray) -> list[str]:
    """Density per species to round-off; total z-momentum and energy to
    quadrature tolerance.  ``before``/``after`` are ``(B, S, n)`` stacks of
    vertex states advanced by pure collision steps."""
    failures = []
    for b in range(before.shape[0]):
        f0 = [before[b, s] for s in range(len(species))]
        f1 = [after[b, s] for s in range(len(species))]
        m0 = [moments.species_moments(s, x) for s, x in enumerate(f0)]
        m1 = [moments.species_moments(s, x) for s, x in enumerate(f1)]
        # relative to the vertex's largest species density: a species the
        # mesh barely resolves may carry almost none
        n_scale = max(abs(m.density) for m in m0)
        for s, (a, c) in enumerate(zip(m0, m1)):
            drift = abs(c.density - a.density) / n_scale
            if not drift <= DENSITY_RTOL:
                failures.append(
                    f"vertex {b} species {s}: density changed by {drift:.3e} "
                    f"(> {DENSITY_RTOL:.0e})"
                )
        # momentum scale: the momentum each species would carry drifting
        # at its thermal speed
        p_scale = sum(
            sp.mass * abs(m.density) * sp.thermal_velocity for sp, m in zip(species, m0)
        )
        dp = abs(sum(m.momentum_z for m in m1) - sum(m.momentum_z for m in m0))
        if not dp <= MOMENT_RTOL * p_scale:
            failures.append(
                f"vertex {b}: z-momentum changed by {dp / p_scale:.3e} of scale "
                f"(> {MOMENT_RTOL:.0e})"
            )
        e0 = sum(m.energy for m in m0)
        de = abs(sum(m.energy for m in m1) - e0)
        if not de <= MOMENT_RTOL * abs(e0):
            failures.append(
                f"vertex {b}: energy changed by {de / abs(e0):.3e} "
                f"(> {MOMENT_RTOL:.0e})"
            )
    return failures


def all_converged(mask) -> list[str]:
    mask = np.asarray(mask, dtype=bool)
    bad = np.flatnonzero(~mask)
    if bad.size:
        return [f"{bad.size} of {mask.size} vertices did not converge: {bad[:8].tolist()}"]
    return []


def agreement(batched: np.ndarray, reference: np.ndarray, tol: float, label: str) -> list[str]:
    """Relative max-norm distance between two solutions of one step."""
    scale = float(np.abs(reference).max())
    diff = float(np.abs(batched - reference).max()) / scale
    if not diff <= tol:
        return [f"{label}: batched and single-vertex solutions differ by {diff:.3e} (> {tol:.0e})"]
    return []


def finite(states: np.ndarray, label: str) -> list[str]:
    if not np.all(np.isfinite(states)):
        return [f"{label}: non-finite values in the output"]
    return []


# ----------------------------------------------------------------------
# quench ensemble
def member_mass(n_final: float, n_initial: float, injected: float, label: str, tol: float = 1e-10) -> list[str]:
    """Final electron density = initial + injected (each as integrated on
    the mesh): collisions conserve density, the pulse adds exactly the
    prescribed amount."""
    expect = n_initial + injected
    err = abs(n_final - expect) / abs(expect)
    if not err <= tol:
        return [f"{label}: n_e final {n_final:.12g} != initial + injected {expect:.12g} (rel {err:.2e})"]
    return []


def member_quenched(quench_time: float, T_final: float, T_initial: float, threshold: float, label: str) -> list[str]:
    failures = []
    if not math.isfinite(quench_time):
        failures.append(f"{label}: no quench time (T_e never crossed {threshold} T_e(0))")
    if not T_final < threshold * T_initial:
        failures.append(
            f"{label}: T_e final {T_final:.4g} not below {threshold} x T_e(0) = {threshold * T_initial:.4g}"
        )
    return failures


def bitwise_equal(a: list[str], b: list[str], label: str) -> list[str]:
    if list(a) != list(b):
        diff = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
        return [f"{label}: {diff} member states differ between submission orders"]
    return []


# ----------------------------------------------------------------------
# thermal quench trace
def density_ramp(n_e, injected, total: float, tol: float, total_tol: float) -> list[str]:
    """n_e follows the prescribed injection, n_e(0) + injected(t), to
    ``tol`` and ends at n_e(0) + total to ``total_tol`` (both relative to
    n_e(0))."""
    failures = []
    n_e = np.asarray(n_e, dtype=float)
    expect = n_e[0] + np.asarray(injected, dtype=float)
    err = np.abs(n_e - expect) / n_e[0]
    worst = int(np.argmax(err))
    if not err[worst] <= tol:
        failures.append(
            f"n_e sample {worst} = {n_e[worst]:.8g} but the prescribed ramp gives "
            f"{expect[worst]:.8g} (rel {err[worst]:.2e})"
        )
    if not abs(n_e[-1] - (n_e[0] + total)) <= total_tol * n_e[0]:
        failures.append(f"final n_e {n_e[-1]:.8g} is not n_e(0) + {total:g} = {n_e[0] + total:.8g}")
    return failures


def temperature_collapse(T_e, threshold: float) -> list[str]:
    T_e = np.asarray(T_e, dtype=float)
    if not T_e[-1] < threshold * T_e[0]:
        return [f"T_e did not collapse: {T_e[-1]:.4g} >= {threshold} x T_e(0) = {threshold * T_e[0]:.4g}"]
    return []


def macro_steps(t, dt: float, expected: int) -> list[str]:
    """Every macro step reached its end time: ``expected`` samples after
    t = 0, spaced exactly ``dt`` apart."""
    t = np.asarray(t, dtype=float)
    if len(t) != expected + 1:
        return [f"{len(t) - 1} macro steps completed, expected {expected}"]
    if not np.allclose(np.diff(t), dt, rtol=0.0, atol=1e-9 * dt):
        return [f"macro steps off the dt = {dt} grid: {np.diff(t).tolist()}"]
    return []


# ----------------------------------------------------------------------
# traced run
def layer_sum(parts_s: dict, measured_s: float, tol_s: float) -> list[str]:
    """The layers' self times add up to the step time measured outside
    the tracer, to within ``tol_s`` (the cost of the spans themselves
    plus the timer calls around each step)."""
    total = sum(parts_s.values())
    if not abs(total - measured_s) <= tol_s:
        shares = ", ".join(f"{k} {1e3 * v:.1f} ms" for k, v in parts_s.items())
        return [
            f"layer self times sum to {1e3 * total:.3f} ms but the steps took "
            f"{1e3 * measured_s:.3f} ms (tolerance {1e3 * tol_s:.3f} ms): {shares}"
        ]
    return []
