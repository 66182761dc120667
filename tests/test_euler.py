import hashlib
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fv_reference as fvr
import riemann_oracle as ro
from pdettc import euler
from pdettc.euler import (GridSpec, ICSpec, InvalidInitialCondition, Snapshot,
                          SolverError, conservation_drift, fv_step,
                          generate_dataset, make_initial_condition,
                          max_stable_dt, sample_ic, solve_trajectory,
                          split_indices, total, totals)
from pdettc.rng import RngStream

GAMMA = 1.4


def uniform_snapshot(nx, ny, rho=1.0, vx=0.3, vy=-0.2, p=0.7):
    shape = (nx, ny)
    return Snapshot.from_fields(np.stack([
        np.full(shape, rho), np.full(shape, vx),
        np.full(shape, vy), np.full(shape, p)]), 0.0)


# ---------------------------------------------------------------------------
# oracle self-consistency (independent of the FV path)


def test_oracle_sod_star_state_frozen():
    p_star, u_star = ro.solve_star(ro.SOD_LEFT, ro.SOD_RIGHT, GAMMA)
    # values computed by this oracle via Newton iteration, frozen here
    assert p_star == pytest.approx(0.3031301781, abs=1e-9)
    assert u_star == pytest.approx(0.9274526200, abs=1e-9)
    fl, _ = ro._pressure_fn(p_star, ro.SOD_LEFT, GAMMA)
    fr, _ = ro._pressure_fn(p_star, ro.SOD_RIGHT, GAMMA)
    assert abs(fl + fr + (ro.SOD_RIGHT.u - ro.SOD_LEFT.u)) < 1e-12


def test_oracle_right_shock_satisfies_rankine_hugoniot():
    g = GAMMA
    p_star, u_star = ro.solve_star(ro.SOD_LEFT, ro.SOD_RIGHT, g)
    r = ro.SOD_RIGHT
    pr = p_star / r.p
    speed = r.u + r.sound_speed(g) * np.sqrt((g + 1) / (2 * g) * pr + (g - 1) / (2 * g))
    rho_star = r.rho * (pr + (g - 1) / (g + 1)) / ((g - 1) / (g + 1) * pr + 1.0)
    # mass and momentum fluxes in the shock frame must match across the jump
    assert r.rho * (speed - r.u) == pytest.approx(rho_star * (speed - u_star), abs=1e-12)
    assert r.p + r.rho * (speed - r.u) ** 2 == pytest.approx(
        p_star + rho_star * (speed - u_star) ** 2, abs=1e-12)


def test_oracle_left_fan_is_isentropic():
    g = GAMMA
    xi = np.linspace(-1.1, -0.1, 9)
    rho, _, p = ro.sample(ro.SOD_LEFT, ro.SOD_RIGHT, xi, g)
    s = p / rho ** g
    assert np.max(np.abs(s - s[0])) < 1e-12


# ---------------------------------------------------------------------------
# fv_step basics


def test_uniform_state_is_fixed_point():
    u = uniform_snapshot(16, 16)
    out = fv_step(u, 1e-3, GAMMA)
    assert np.array_equal(out.fields(), u.fields())
    assert out.t == pytest.approx(1e-3)


def test_single_step_conserves_totals():
    spec = sample_ic("rp", seed=11)
    grid = GridSpec(32, 32)
    u = make_initial_condition(spec, grid)
    dt = max_stable_dt(u, grid, GAMMA, 0.4)
    out = fv_step(u, dt, GAMMA, grid)
    before, after = totals(u, GAMMA), totals(out, GAMMA)
    scale = np.maximum(np.abs(before), np.abs(before[0]))
    assert np.all(np.abs(after - before) / scale < 1e-12)


def test_totals_are_correctly_rounded_whatever_the_cell_order():
    u = make_initial_condition(sample_ic("kh", seed=2), GridSpec(32, 32))
    perm = np.random.default_rng(0).permutation(32 * 32)
    shuffled = Snapshot(u.data.reshape(4, -1)[:, perm].reshape(u.data.shape), u.t)
    assert np.array_equal(totals(shuffled, GAMMA), totals(u, GAMMA))
    momentum = u.rho * u.vx
    assert totals(u, GAMMA)[1] == math.fsum(float(v) for v in momentum.ravel())


@pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided", "float32"])
def test_total_equals_the_fsum_of_the_listed_values(layout):
    """fsum over a memoryview of the raveled array reads the values that
    ``tolist`` lists, so the total is the same float bit for bit."""
    d = np.random.default_rng(5).lognormal(size=(48, 40)) * 1e3
    d = {"contiguous": d, "transposed": d.T, "strided": d[::3, 1::2],
         "float32": d.astype(np.float32)}[layout]
    assert total(d).hex() == math.fsum(d.ravel().tolist()).hex()


@pytest.mark.parametrize("families,gamma,cfl,split,match", [
    (["rp", "zz"], GAMMA, 0.4, (1, 0, 0), "unknown IC family 'zz'"),
    (["rp"], 1.0, 0.4, (1, 0, 0), "gamma must be > 1"),
    (["rp"], GAMMA, 0.0, (1, 0, 0), "cfl must be in"),
    (["rp"], GAMMA, 1.5, (1, 0, 0), "cfl must be in"),
    (["rp"], GAMMA, 0.4, (0.5, 0.5, 0.5), "split fractions"),
])
def test_generate_dataset_checks_its_inputs_before_solving(monkeypatch, families, gamma,
                                                           cfl, split, match):
    def solve(*_, **__):
        raise AssertionError("solved a trajectory with bad inputs")

    monkeypatch.setattr(euler, "trajectory_snapshots", solve)
    with pytest.raises(ValueError, match=match):
        generate_dataset(families, 1, GridSpec(8, 8), seed=0, split_fractions=split,
                         gamma=gamma, cfl=cfl)


def test_cfl_violation_rejected():
    spec = sample_ic("kh", seed=1)
    grid = GridSpec(16, 16)
    u = make_initial_condition(spec, grid)
    with pytest.raises(SolverError, match="CFL"):
        fv_step(u, 10.0 * max_stable_dt(u, grid, GAMMA), GAMMA, grid)
    with pytest.raises(SolverError):
        fv_step(u, -1e-3, GAMMA, grid)


def test_fv_step_with_cfl_takes_the_shorter_of_dt_and_the_cfl_step():
    grid = GridSpec(16, 16)
    u = make_initial_condition(sample_ic("kh", seed=1), grid)
    step = max_stable_dt(u, grid, GAMMA, 0.4)
    out = fv_step(u, 1.0, GAMMA, grid, cfl=0.4)
    assert out.t == step
    assert np.array_equal(out.fields(), fv_step(u, step, GAMMA, grid).fields())
    short = fv_step(u, 0.5 * step, GAMMA, grid, cfl=0.4)
    assert short.t == 0.5 * step
    with pytest.raises(SolverError, match="CFL"):
        fv_step(u, 1.0, GAMMA, grid, cfl=2.0)       # beyond the bound at cfl 1
    for cfl in (0.0, -0.4):
        with pytest.raises(SolverError, match="positive"):
            fv_step(u, 1.0, GAMMA, grid, cfl=cfl)


def test_solve_evaluates_the_cfl_bound_once_per_step(monkeypatch):
    counts = {"fv_step": 0, "max_stable_dt": 0}
    for name in counts:
        original = getattr(euler, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(euler, name, counted)
    euler.solve_trajectory(sample_ic("rp", seed=2), GridSpec(16, 16), n_snapshots=3,
                           t_final=0.1)
    assert counts["fv_step"] > 2
    assert counts["max_stable_dt"] == counts["fv_step"]


def test_translation_equivariance_whole_cells():
    grid = GridSpec(24, 24)
    u = make_initial_condition(sample_ic("crp", seed=5), grid)
    shifted = Snapshot.from_fields(np.roll(u.fields(), (7, 3), axis=(1, 2)), 0.0)
    a, b = u, shifted
    for _ in range(12):
        dt = min(max_stable_dt(a, grid, GAMMA, 0.4),
                 max_stable_dt(b, grid, GAMMA, 0.4))
        a = fv_step(a, dt, GAMMA, grid)
        b = fv_step(b, dt, GAMMA, grid)
    assert np.max(np.abs(np.roll(a.fields(), (7, 3), axis=(1, 2)) - b.fields())) <= 1e-12


# ---------------------------------------------------------------------------
# bit-identity with the roll-based reference step


def reference_step(u, dt, grid):
    return fvr.step_fields(u.fields(), dt, GAMMA, grid.dx, grid.dy)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def random_state(shape, seed, zero_v, patch):
    """Mild random primitives, optionally with exact +-0 velocities and a uniform patch."""
    u = RngStream(seed, 77).uniform(size=(6,) + shape)
    f = np.stack([0.5 + u[0], 0.6 * u[1] - 0.3, 0.6 * u[2] - 0.3, 0.5 + u[3]])
    if zero_v:
        # a quarter of the velocities become exact zeros of either sign
        f[1:3][u[4:6] < 0.125] = 0.0
        f[1:3][u[4:6] > 0.875] = -0.0
    if patch:
        nx, ny = shape
        f[:, nx // 4: 3 * nx // 4, : ny // 2] = [[[1.1]], [[-0.0]], [[0.2]], [[0.9]]]
    return Snapshot.from_fields(f, 0.125)


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([(8, 8), (8, 12), (24, 16), (24, 8)]),
       seed=st.integers(0, 2**32), zero_v=st.booleans(), patch=st.booleans(),
       cfl=st.floats(0.05, 1.0))
def test_fv_step_bit_identical_to_roll_reference(shape, seed, zero_v, patch, cfl):
    grid = GridSpec(*shape)
    u = random_state(shape, seed, zero_v, patch)
    dt = cfl * max_stable_dt(u, grid, GAMMA)
    out = fv_step(u, dt, GAMMA, grid)
    assert np.array_equal(bits(out.fields()), bits(reference_step(u, dt, grid)))
    assert out.t == u.t + dt


def test_fv_step_keeps_signed_zero_velocities_of_reference():
    grid = GridSpec(8, 12)
    fields = np.stack([np.full((8, 12), 1.0), np.full((8, 12), -0.0),
                       np.zeros((8, 12)), np.full((8, 12), 0.8)])
    fields[0, 2:5, 3:9] = 1.3            # density bump, still at rest
    u = Snapshot.from_fields(fields, 0.0)
    dt = 0.5 * max_stable_dt(u, grid, GAMMA)
    out = fv_step(u, dt, GAMMA, grid).fields()
    ref = reference_step(u, dt, grid)
    assert np.array_equal(bits(out), bits(ref))
    assert np.any(np.signbit(ref[1]) & (ref[1] == 0.0))   # the case is exercised


@pytest.mark.parametrize("shape", [(8, 12), (24, 8)])
def test_fv_step_matches_reference_with_contrasting_edge_columns(shape):
    """The flat rows of the y sweep run from one padded grid row, which
    ends with the ghosts of columns 0 and 1, into the next, which starts
    with those of columns ny-2 and ny-1.  With density and pressure 10^4
    times apart across that junction (100 in the first two columns, 0.01
    in the last two) and velocities of +-0, the step still equals the
    reference bit for bit and warns of nothing (the suite turns
    RuntimeWarning into an error)."""
    grid = GridSpec(*shape)
    fields = np.stack([np.ones(shape), np.zeros(shape), np.full(shape, -0.0), np.ones(shape)])
    fields[1:3, ::2] *= -1.0                 # +0 and -0 in alternate rows
    fields[[0, 3], :, :2] = 100.0
    fields[[0, 3], :, -2:] = 0.01
    u = Snapshot.from_fields(fields, 0.0)
    dt = 0.5 * max_stable_dt(u, grid, GAMMA)
    assert np.array_equal(bits(fv_step(u, dt, GAMMA, grid).fields()),
                          bits(reference_step(u, dt, grid)))


@pytest.mark.parametrize("n", [64, 128])
def test_warm_fv_step_allocates_little_beyond_its_result(n):
    """Once the workspace for the grid exists, a step allocates its result,
    the CFL and validation temporaries and NumPy's bounded iterator
    buffers: under two (4, n, n) float64 arrays at its peak.  A workspace
    rebuilt or grown per step would be ten such arrays."""
    grid = GridSpec(n, n)
    u = make_initial_condition(sample_ic("rp", seed=3), grid)
    dt = max_stable_dt(u, grid, GAMMA, 0.4)
    u = fv_step(u, dt, GAMMA, grid)
    tracemalloc.start()
    try:
        fv_step(u, dt, GAMMA, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * u.data.nbytes, peak / u.data.nbytes


# sha256 of the 21 stacked float64 snapshots of a 16x16 trajectory from
# sample_ic(family, seed=12), computed with the roll-based solver
# (fv_reference.step_fields in place of fv_step)
FROZEN_16_DIGESTS = {
    "rp": "9412d7a673f0e5e68be06f020901b5ed80ac83179ef30500b52e3443b9e9e74e",
    "crp": "f54aba9c6107394adef7ffded5ea6d97c806e8686e4e3d7b755518ca151ad276",
    "gauss": "4a8a4336e39738ae19c2a4fc80f93549c6c0ffdc4875d528d9582a4d37819369",
    "kh": "388a6f8c0d17144d1ee5374ceee35a240a64b913dcb058e2dcd30ca029208f1b",
    "rpui": "cd0b34fc09fe5d9b373c9acd8755500a839cc4de2dd1ddb061dc6aff606889e3",
    "rm": "ff1ce19cb399be2314ba5073276e40f8dfddfd522077d22fb512ba8dc964dbc4",
}


def trajectory_digest(traj):
    return hashlib.sha256(np.stack([s.fields() for s in traj.snapshots]).tobytes()).hexdigest()


@pytest.mark.parametrize("family", euler.FAMILIES)
def test_trajectory_digest_frozen(family):
    traj = solve_trajectory(sample_ic(family, seed=12), GridSpec(16, 16))
    assert trajectory_digest(traj) == FROZEN_16_DIGESTS[family]


def test_interleaved_grid_shapes_give_fresh_process_bits():
    square = solve_trajectory(sample_ic("rp", seed=12), GridSpec(16, 16))
    grid = GridSpec(24, 16)
    u = make_initial_condition(sample_ic("kh", seed=3), grid)
    for _ in range(3):
        dt = max_stable_dt(u, grid, GAMMA, 0.4)
        ref = reference_step(u, dt, grid)
        u = fv_step(u, dt, GAMMA, grid)
        assert np.array_equal(bits(u.fields()), bits(ref))
    again = solve_trajectory(sample_ic("rp", seed=12), GridSpec(16, 16))
    assert trajectory_digest(square) == trajectory_digest(again) == FROZEN_16_DIGESTS["rp"]


def test_threads_stepping_at_once_get_reference_bits():
    def run(family, out):
        grid = GridSpec(48, 40)       # one grid, so a shared workspace would be clobbered
        u = make_initial_condition(sample_ic(family, seed=4), grid)
        for _ in range(20):
            dt = max_stable_dt(u, grid, GAMMA, 0.4)
            ref = reference_step(u, dt, grid)
            u = fv_step(u, dt, GAMMA, grid)
            out.append(np.array_equal(bits(u.fields()), bits(ref)))

    families = ("rp", "kh", "rm")
    results = {f: [] for f in families}
    threads = [threading.Thread(target=run, args=(f, results[f])) for f in families]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)       # switch threads often, mid-step
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == {f: [True] * 20 for f in families}


def test_fv_step_does_not_mutate_its_input():
    grid = GridSpec(16, 16)
    u = make_initial_condition(sample_ic("rpui", seed=6), grid)
    before = [a.copy() for a in (u.rho, u.vx, u.vy, u.p)]
    out = fv_step(u, max_stable_dt(u, grid, GAMMA, 0.4), GAMMA, grid)
    nxt = fv_step(out, max_stable_dt(out, grid, GAMMA, 0.4), GAMMA, grid)
    for a, b in zip(before, (u.rho, u.vx, u.vy, u.p)):
        assert np.array_equal(bits(a), bits(b))
    # the returned fields are fresh, not views of anything the next step writes
    assert not any(np.shares_memory(a, b) for a in out.fields() for b in nxt.fields())
    assert not np.shares_memory(out.rho, u.rho)


def test_intermediate_positivity_error_carries_time():
    grid = GridSpec(8, 8)
    # wide random state that survives the first stage and fails the second
    r = RngStream(10).uniform(size=(4, 8, 8))
    fields = np.stack([10 ** (-3 * r[0]), 2 * r[1] - 1, 2 * r[2] - 1, 10 ** (5 * r[3] - 4)])
    u = Snapshot.from_fields(fields, 0.3)
    dt = max_stable_dt(u, grid, GAMMA)
    U = fvr.prim_to_cons(fields, GAMMA)
    U1 = U + dt * fvr.rhs(U, GAMMA, grid.dx, grid.dy)
    with pytest.raises(fvr.ReferenceSolverError):
        fvr.rhs(U1, GAMMA, grid.dx, grid.dy)
    before = u.fields().copy()
    with pytest.raises(SolverError, match=r"positivity lost in intermediate stage \(t=0\.3\)") as exc:
        fv_step(u, dt, GAMMA, grid)
    assert exc.value.time == 0.3
    assert np.array_equal(bits(u.fields()), bits(before))
    # a non-positive input pressure fails the first stage
    bad = Snapshot.from_fields(np.where(np.arange(4)[:, None, None] == 3, -1.0, 1.0)
                               * np.ones((4, 8, 8)), 0.7)
    with pytest.raises(SolverError, match="positivity lost") as exc, \
            np.errstate(invalid="ignore"):        # its CFL bound is NaN
        fv_step(bad, 1e-3, GAMMA, grid)
    assert exc.value.time == 0.7


def test_cfl_error_carries_time():
    grid = GridSpec(16, 16)
    u = replace(make_initial_condition(sample_ic("kh", seed=1), grid), t=0.25)
    with pytest.raises(SolverError, match="CFL") as exc:
        fv_step(u, 10.0 * max_stable_dt(u, grid, GAMMA), GAMMA, grid)
    assert exc.value.time == 0.25
    with pytest.raises(SolverError, match="positive") as exc:
        fv_step(u, 0.0, GAMMA, grid)
    assert exc.value.time == 0.25


# ---------------------------------------------------------------------------
# Sod shock tube vs the exact oracle
#
# Doubled periodic domain [0, 2] keeps the wrap-interface waves away
# from the central structure until past t = 0.2; dx = 1/256.


def test_sod_density_profile_matches_exact_oracle():
    nx, ny = 512, 8
    grid = GridSpec(nx, ny, lx=2.0, ly=2.0 * ny / nx)
    x, _ = grid.cell_centers()
    left, right = ro.SOD_LEFT, ro.SOD_RIGHT
    fields = np.stack([
        np.where(x < 1.0, left.rho, right.rho),
        np.zeros_like(x), np.zeros_like(x),
        np.where(x < 1.0, left.p, right.p)])
    cur = Snapshot.from_fields(fields, 0.0)
    t_end = 0.2
    while cur.t < t_end - 1e-13:
        dt = min(max_stable_dt(cur, grid, GAMMA, 0.4), t_end - cur.t)
        cur = fv_step(cur, dt, GAMMA, grid)
    xs = x[:, 0]
    window = (xs >= 0.25) & (xs <= 1.65)
    rho_exact, _, _ = ro.profile_at(left, right, xs[window], t_end, x0=1.0, gamma=GAMMA)
    l1 = float(np.mean(np.abs(cur.rho[window, 0] - rho_exact)))
    jump = left.rho - right.rho
    assert l1 < 0.02 * jump, f"L1 {l1:.4f} vs bound {0.02 * jump:.4f}"
    # y-extruded data must stay y-uniform
    assert np.max(np.abs(cur.rho - cur.rho[:, :1])) < 1e-12


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_snapshot_times_and_count():
    traj = solve_trajectory(sample_ic("gauss", seed=2), GridSpec(16, 16))
    assert len(traj) == 21
    assert np.allclose(traj.times, np.arange(21) / 20.0)
    assert [s.t for s in traj.snapshots] == list(traj.times)


def test_uniform_ic_gives_steady_trajectory():
    spec = ICSpec("gauss", {"rho0": 1.0, "p0": 1.0, "bumps": []}, seed=0)
    traj = solve_trajectory(spec, GridSpec(8, 8))
    for s in traj.snapshots[1:]:
        assert np.array_equal(s.fields(), traj.snapshots[0].fields())


def test_trajectory_starts_at_realized_ic():
    grid = GridSpec(16, 16)
    spec = sample_ic("rm", seed=4)
    traj = solve_trajectory(spec, grid)
    ic = make_initial_condition(spec, grid)
    assert np.array_equal(traj.snapshots[0].fields(), ic.fields())


@pytest.mark.parametrize("gamma", [1.4, 1.6])
def test_rm_post_shock_state_is_that_of_the_solve_gamma(gamma):
    grid = GridSpec(16, 16)
    spec = sample_ic("rm", seed=3)
    u = next(euler.trajectory_snapshots(spec, grid, gamma))
    x, _ = grid.cell_centers()
    behind = x < spec.params["x_shock"]
    assert behind.any()
    want = euler.shock_jump_state(spec.params["rho1"], spec.params["p1"],
                                  spec.params["mach"], gamma)
    for field, value in zip((u.rho, u.vx, u.p), want):
        assert np.all(field[behind] == value)
    assert np.array_equal(make_initial_condition(spec, grid, gamma).fields(), u.fields())


def test_kh_trajectory_conserves_to_1e10():
    traj = solve_trajectory(sample_ic("kh", seed=3), GridSpec(32, 32))
    drift = conservation_drift(traj, GAMMA)
    for k, v in drift.items():
        assert v < 1e-10, f"{k} drift {v:.3e}"


def test_positivity_everywhere_on_all_families():
    for fam in euler.FAMILIES:
        traj = solve_trajectory(sample_ic(fam, seed=8), GridSpec(16, 16))
        for s in traj.snapshots:
            assert s.rho.min() > 0.0 and s.p.min() > 0.0


# ---------------------------------------------------------------------------
# initial conditions


def test_gauss_zero_bumps_is_uniform_background():
    spec = ICSpec("gauss", {"rho0": 1.3, "p0": 0.9, "bumps": []}, seed=0)
    s = make_initial_condition(spec, GridSpec(8, 8))
    assert np.all(s.rho == 1.3) and np.all(s.p == 0.9)
    assert np.all(s.vx == 0.0) and np.all(s.vy == 0.0)


def test_gauss_zero_amplitude_bump_is_uniform():
    spec = ICSpec("gauss", {"rho0": 1.0, "p0": 1.0, "bumps": [
        {"x": 0.5, "y": 0.5, "sigma": 0.1, "amp_rho": 0.0, "amp_p": 0.0}]}, seed=0)
    s = make_initial_condition(spec, GridSpec(8, 8))
    assert np.all(s.rho == 1.0) and np.all(s.p == 1.0)


def test_rp_degenerate_quadrants_uniform():
    st = [0.9, 0.1, -0.2, 1.1]
    spec = ICSpec("rp", {"x0": 0.5, "y0": 0.5, "states": [st] * 4}, seed=0)
    s = make_initial_condition(spec, GridSpec(8, 8))
    for c, v in zip(s.fields(), st):
        assert np.all(c == v)


def test_kh_vx_matches_closed_form_shear_profile():
    params = {"rho_in": 2.0, "rho_out": 1.0, "u0": 0.5, "delta": 0.03,
              "amp": 0.01, "k_mode": 1, "p0": 2.5}
    grid = GridSpec(32, 32)
    s = make_initial_condition(ICSpec("kh", params, seed=0), grid)
    _, y = grid.cell_centers()
    expected = 0.5 * np.tanh((0.25 - np.abs(y - 0.5)) / 0.03)
    assert np.array_equal(s.vx, expected)
    assert np.max(np.abs(s.vx)) <= 0.5


def test_rm_post_shock_state_satisfies_rankine_hugoniot():
    g = GAMMA
    rho2, u2, p2 = euler.shock_jump_state(1.0, 1.0, mach=1.5, gamma=g)
    c1 = np.sqrt(g)
    speed = 1.5 * c1
    # conservation of mass/momentum/energy fluxes in the shock frame
    m1, m2 = 1.0 * speed, rho2 * (speed - u2)
    assert m1 == pytest.approx(m2, rel=1e-12)
    assert 1.0 + m1 * speed == pytest.approx(p2 + m2 * (speed - u2), rel=1e-12)
    h1 = g / (g - 1) * 1.0 / 1.0 + 0.5 * speed ** 2
    h2 = g / (g - 1) * p2 / rho2 + 0.5 * (speed - u2) ** 2
    assert h1 == pytest.approx(h2, rel=1e-12)


def test_invalid_ic_parameters_rejected():
    bad = ICSpec("gauss", {"rho0": 1.0, "p0": 1.0, "bumps": [
        {"x": 0.5, "y": 0.5, "sigma": 0.2, "amp_rho": -2.0, "amp_p": 0.0}]}, seed=0)
    with pytest.raises(InvalidInitialCondition):
        make_initial_condition(bad, GridSpec(8, 8))
    with pytest.raises(InvalidInitialCondition):
        ICSpec("nope", {}, seed=0)


def test_grid_spec_invariants():
    with pytest.raises(ValueError):
        GridSpec(4, 16)
    g = GridSpec(10, 20, lx=1.0, ly=2.0)
    assert g.dx == pytest.approx(0.1) and g.dy == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# dataset generation


def test_split_counts_exact():
    split = split_indices(128, (0.75, 0.125, 0.125), seed=0)
    assert (len(split["train"]), len(split["val"]), len(split["test"])) == (96, 16, 16)
    all_ids = sorted(split["train"] + split["val"] + split["test"])
    assert all_ids == list(range(128))


def test_split_fractions_must_sum_to_one():
    with pytest.raises(ValueError):
        split_indices(10, (0.5, 0.2, 0.2), seed=0)


def test_generate_dataset_deterministic_and_normalized():
    grid = GridSpec(16, 16)
    a = generate_dataset(["rp"], 4, grid, seed=9, split_fractions=(0.5, 0.25, 0.25))
    b = generate_dataset(["rp"], 4, grid, seed=9, split_fractions=(0.5, 0.25, 0.25))
    for ta, tb in zip(a.trajectories, b.trajectories):
        for sa, sb in zip(ta.snapshots, tb.snapshots):
            assert np.array_equal(sa.fields(), sb.fields())
    assert a.split == b.split
    assert np.array_equal(a.normalization.mean, b.normalization.mean)
    # stats really come from the train split only
    train = a.split_trajectories("train")
    ref = euler.Normalization.from_trajectories(train)
    assert np.array_equal(a.normalization.mean, ref.mean)


def test_generate_dataset_empty():
    ds = generate_dataset(["rp"], 0, GridSpec(8, 8), seed=1)
    assert ds.trajectories == [] and ds.normalization is None
    assert all(len(v) == 0 for v in ds.split.values())


def test_normalization_roundtrip():
    ds = generate_dataset(["gauss"], 2, GridSpec(8, 8), seed=3,
                          split_fractions=(1.0, 0.0, 0.0))
    f = ds.trajectories[0].snapshots[5].fields()
    back = ds.normalization.unapply(ds.normalization.apply(f))
    assert np.max(np.abs(back - f)) < 1e-12


def test_snapshot_is_one_array_with_channel_views():
    f = np.arange(4 * 8 * 9, dtype=np.float64).reshape(4, 8, 9)
    s = Snapshot.from_fields(f, 0.5)
    assert s.fields() is s.data and np.shares_memory(s.fields(), f)   # no copy
    for i, name in enumerate(euler.CHANNELS):
        view = getattr(s, name)
        assert view.shape == (8, 9) and np.shares_memory(view, s.fields())
        assert np.array_equal(view, f[i])
    s32 = Snapshot.from_fields(f.astype(np.float32), 0.5)
    assert s32.fields().dtype == np.float64 and np.array_equal(s32.fields(), f)
    for shape in ((3, 8, 9), (4, 8), (1, 4, 8, 9)):
        with pytest.raises(ValueError, match="shape"):
            Snapshot.from_fields(np.ones(shape), 0.0)
