"""Conservative finite-volume solver for 2D compressible Euler flow.

Periodic unit square, MUSCL-minmod reconstruction of primitives,
Rusanov (local Lax-Friedrichs) interface fluxes, two-stage SSP
Runge-Kutta time stepping.  Because the update is written purely in
interface-flux differences, the discrete totals of mass, momentum and
energy telescope to floating-point roundoff.

Apart from its CFL check, the validation of its result and NumPy's own
bounded iterator buffers, a step allocates nothing but the returned
snapshot.  Each direction is swept over a copy of the primitives padded
with two periodic ghost cells per side, so the neighbour differences,
the minmod slopes and the interface states are slices of one padded
array rather than rolled copies.  Both directions are swept alike, over
the padded array seen as four flat rows, one per channel, in which a
cell's neighbour along the sweep is ny entries away for x and one for
y; so almost every NumPy call runs one long loop per channel (see
`_Sweep`).  One pass per interface side gives its conserved state,
physical flux and wave speed |u_n| + c.  Every intermediate is written
with ``out=`` into a workspace of flat float64 buffers that are reshaped
as views for both sweep directions and both Runge-Kutta stages.  There
is one workspace per grid: each thread keeps the one for the grid it
stepped last and replaces it when the grid changes, so a workspace is
never shared between threads.

The result is bit-identical to the straightforward array formulation
(``np.roll`` neighbours, fresh temporaries): every element is computed
with the same operations in the same order.  Only exact rewrites are
used, such as ``x*0.5`` for ``0.5*x``, a commuted product or sum, or
``a - b`` for ``a + (-b)``.  Sums such as ``0.5*(Fl + Fr)`` are not
distributed, and minmod keeps its sign-sum form, which fixes the sign of
a zero slope.  tests/fv_reference.py holds the array formulation, and
the tests compare the two bit for bit.

A `Trajectory` holds its snapshots as a read-only sequence: indexing
gives a float64 `Snapshot`, slicing gives another sequence, and each
snapshot is read by iterating or indexing, never changed in place.  A
solved trajectory holds a list; a trajectory of a stored dataset, and
one that `gen-data` has solved, holds a `storage.SnapshotRows`, which
reads each snapshot from its float32 (or scratch float64) row of the
file when it is asked for and turns it into float64.  A `Dataset` is
therefore as large in memory as its metadata, whatever its file holds.
The reductions over trajectories (`Normalization.from_trajectories`,
`conservation_drift`) read each snapshot once, in order.

Also hosts the initial-condition families used to build trajectory
datasets: quadrant Riemann problems (rp), curved-interface variants
(crp), Gaussian perturbations (gauss), Kelvin-Helmholtz shear layers
(kh), perturbed/displaced-interface Riemann problems (rpui) and a
shock hitting a corrugated density interface (rm).
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import threading
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .rng import RngStream, mix64

GAMMA_DEFAULT = 1.4
CFL_DEFAULT = 0.4
SPLIT_DEFAULT = (0.75, 0.125, 0.125)   # train, val, test fractions
N_SNAPSHOTS = 21
T_FINAL = 1.0
CHANNELS = ("rho", "vx", "vy", "p")

FAMILIES = ("rp", "crp", "gauss", "kh", "rpui", "rm")


class SolverError(RuntimeError):
    """Positivity or stability failure during time stepping."""

    def __init__(self, msg: str, time: float | None = None):
        super().__init__(msg if time is None else f"{msg} (t={time:.6g})")
        self.time = time


class InvalidInitialCondition(ValueError):
    """IC parameters produce non-positive density or pressure."""


@dataclass(frozen=True)
class GridSpec:
    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ValueError(f"grid must be at least 8x8, got {self.nx}x{self.ny}")
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError("domain lengths must be positive")

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    def cell_centers(self):
        """Coordinate arrays (nx, ny) of cell centers."""
        x = (np.arange(self.nx) + 0.5) * self.dx
        y = (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(x, y, indexing="ij")


@dataclass(frozen=True)
class Snapshot:
    """One time slice of the four primitive fields on the grid.

    ``data`` is one (4, nx, ny) float64 array in canonical channel order;
    ``rho``, ``vx``, ``vy`` and ``p`` are views of its channels.
    """

    data: np.ndarray
    t: float

    @property
    def rho(self) -> np.ndarray:
        return self.data[0]

    @property
    def vx(self) -> np.ndarray:
        return self.data[1]

    @property
    def vy(self) -> np.ndarray:
        return self.data[2]

    @property
    def p(self) -> np.ndarray:
        return self.data[3]

    def fields(self) -> np.ndarray:
        """The stored (4, nx, ny) array itself, not a copy."""
        return self.data

    @classmethod
    def from_fields(cls, arr: np.ndarray, t: float) -> "Snapshot":
        """Snapshot of a (4, nx, ny) array, converted to float64 (no copy
        if it already is)."""
        data = np.asarray(arr, dtype=np.float64)
        if data.ndim != 3 or data.shape[0] != len(CHANNELS):
            raise ValueError(f"fields must have shape (4, nx, ny), got {data.shape}")
        return cls(data=data, t=float(t))

    def validate(self) -> None:
        finite = np.isfinite(self.data).all(axis=(1, 2))
        if not finite.all():
            raise SolverError(f"non-finite {CHANNELS[int(np.argmin(finite))]}", self.t)
        if np.min(self.rho) <= 0.0:
            raise SolverError("non-positive density", self.t)
        if np.min(self.p) <= 0.0:
            raise SolverError("non-positive pressure", self.t)


def check_same_grid(cur: Snapshot, others) -> None:
    for s in others:
        if s.rho.shape != cur.rho.shape:
            raise ValueError(f"grid mismatch {cur.rho.shape} vs {s.rho.shape}")


@dataclass(frozen=True)
class ICSpec:
    family: str
    params: dict
    seed: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidInitialCondition(f"unknown IC family {self.family!r}")


@dataclass(frozen=True)
class Trajectory:
    """An IC and its snapshots at ``times``: a list, or a read-only view of
    a file (see the module docstring)."""

    ic: ICSpec
    snapshots: Sequence[Snapshot]
    times: np.ndarray

    def __len__(self) -> int:
        return len(self.snapshots)


@dataclass
class Normalization:
    """Per-channel z-score statistics, computed on the train split only,
    summing the float64 snapshots in trajectory and time order."""

    mean: np.ndarray            # (4,)
    std: np.ndarray             # (4,), floored away from zero

    STD_FLOOR = 1e-8

    @classmethod
    def from_trajectories(cls, trajs) -> "Normalization":
        acc = np.zeros(4)
        acc2 = np.zeros(4)
        count = 0
        for tr in trajs:
            for s in tr.snapshots:
                f = s.fields()
                acc += f.sum(axis=(1, 2))
                acc2 += (f * f).sum(axis=(1, 2))
                count += f.shape[1] * f.shape[2]
        mean = acc / count
        var = np.maximum(acc2 / count - mean * mean, 0.0)
        std = np.maximum(np.sqrt(var), cls.STD_FLOOR)
        return cls(mean=mean, std=std)

    def apply(self, fields: np.ndarray) -> np.ndarray:
        """Normalize a (..., 4, nx, ny) stack."""
        return (fields - self.mean[:, None, None]) / self.std[:, None, None]

    def unapply(self, fields: np.ndarray) -> np.ndarray:
        return fields * self.std[:, None, None] + self.mean[:, None, None]

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Normalization":
        return cls(mean=np.asarray(d["mean"]), std=np.asarray(d["std"]))


@dataclass
class Dataset:
    grid: GridSpec
    gamma: float
    trajectories: list[Trajectory]
    split: dict                      # {"train": [idx...], "val": [...], "test": [...]}
    normalization: Normalization | None
    seed: int = 0
    families: tuple = ()
    # SHA-256 of the payload of the container it was loaded from, or None
    payload_digest: str | None = None

    def split_trajectories(self, name: str) -> list[Trajectory]:
        return [self.trajectories[i] for i in self.split[name]]


# ---------------------------------------------------------------------------
# Euler core


def energy_density(s: Snapshot, gamma: float) -> np.ndarray:
    """Total energy per cell: E = p/(gamma-1) + rho*(vx^2+vy^2)/2."""
    return s.p / (gamma - 1.0) + 0.5 * s.rho * (s.vx * s.vx + s.vy * s.vy)


def total(density: np.ndarray) -> float:
    """Correctly rounded sum of a per-cell density, so a total does not
    depend on cell order."""
    return math.fsum(density.ravel().tolist())


def totals(s: Snapshot, gamma: float) -> np.ndarray:
    """Correctly rounded sums of (mass, x-momentum, y-momentum, energy)."""
    return np.array([total(s.rho), total(s.rho * s.vx), total(s.rho * s.vy),
                     total(energy_density(s, gamma))])


def _prim_to_cons(U, rho, vx, vy, p, gamma, a, b) -> None:
    """U = (rho, rho*vx, rho*vy, E) from primitives; a and b are scratch."""
    np.copyto(U[0], rho)
    np.multiply(rho, vx, out=U[1])
    np.multiply(rho, vy, out=U[2])
    # E = p/(gamma-1) + 0.5*rho*(vx*vx + vy*vy), evaluated in that order
    np.multiply(vx, vx, out=a)
    np.multiply(vy, vy, out=b)
    a += b
    np.multiply(rho, 0.5, out=b)
    b *= a
    np.divide(p, gamma - 1.0, out=U[3])
    U[3] += b


def _cons_to_prim(W, U, gamma, a) -> None:
    """W = (rho, vx, vy, p) from conserved U; a is scratch."""
    np.copyto(W[0], U[0])
    np.divide(U[1], U[0], out=W[1])
    np.divide(U[2], U[0], out=W[2])
    # p = (gamma-1)*(E - 0.5*rho*(vx*vx + vy*vy))
    np.multiply(W[1], W[1], out=W[3])
    np.multiply(W[2], W[2], out=a)
    W[3] += a
    np.multiply(U[0], 0.5, out=a)
    a *= W[3]
    np.subtract(U[3], a, out=W[3])
    W[3] *= gamma - 1.0


def _interface_side(w, u, f, speed, a, gamma, axis) -> None:
    """Conserved state u, physical flux f and wave speed |u_n|+c of states w."""
    rho, vx, vy, p = w
    un = w[1 + axis]
    _prim_to_cons(u, rho, vx, vy, p, gamma, a, speed)
    m = u[1 + axis]                     # rho*u_n
    np.copyto(f[0], m)
    np.multiply(m, vx, out=f[1])
    np.multiply(m, vy, out=f[2])
    f[1 + axis] += p
    np.add(u[3], p, out=f[3])
    f[3] *= un
    np.multiply(p, gamma, out=speed)
    speed /= rho
    np.sqrt(speed, out=speed)
    np.abs(un, out=a)
    speed += a


def _shaped(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """A view of the front of a flat buffer with the given shape."""
    return buf[:int(np.prod(shape))].reshape(shape)


class _Sweep:
    """Views of the workspace buffers for the flux sweep along one axis.

    The padded primitives, (4, nx+4, ny) for x and (4, nx, ny+4) for y
    with two periodic ghost cells on each side of the axis, are swept as
    (4, L) flat rows: one contiguous run of all L padded cells per
    channel.  Neighbours along the axis sit s apart in a row, s = ny for
    x and s = 1 for y, so one shift-based formulation serves both axes:
    each sweep array holds the first L - k*s entries of a row, with k = 1
    for the differences, 2 for the limited slopes and 3 for the interface
    states and fluxes (interface q sits between padded cells q+s and
    q+2s).  Every ufunc call but the last thus runs one long loop per
    channel, whichever the axis.  The fluxes are laid out as whole rows
    of the padded grid, nx+1 of them for x and nx for y, so the last
    call, the flux differences, reads them through a plain reshape and
    writes a (4, nx, ny) array.

    For x the flat rows hold exactly the elements of (4, nx+4-k, ny)
    arrays.  For y a flat row runs on past the end of each grid row, so
    the last k of each grid row's ny+4 entries mix the cells of two grid
    rows.  The flux differences never read them.  They stay finite, with
    positive density and pressure in the interface states: each is built,
    like every other, by the minmod reconstruction from consecutive
    padded states, all of them valid, so the flux pass over them warns
    of nothing.
    """

    def __init__(self, ws, axis):
        nx, ny = ws.shape
        n = ws.shape[axis]
        padded = (nx + 4, ny) if axis == 0 else (nx, ny + 4)
        size = padded[0] * padded[1]              # L
        s = ny if axis == 0 else 1                # the shift along the axis

        def along(lo, hi):
            return (slice(None),) * (1 + axis) + (slice(lo, hi),)

        def rows(buf, k, channels=True):
            return _shaped(buf, (4, size - k * s) if channels else (size - k * s,))

        self.axis = axis
        wp = _shaped(ws.pad[axis], (4,) + padded)
        self.interior = wp[along(2, n + 2)]
        self.ghosts = ((wp[along(0, 2)], wp[along(n, n + 2)]),
                       (wp[along(n + 2, n + 4)], wp[along(2, 4)]))
        wp = wp.reshape(4, size)
        self.w_hi, self.w_lo = wp[:, s:], wp[:, :-s]
        self.diff, self.sign = (rows(buf, 1) for buf in ws.vec[:2])
        self.slope = rows(ws.vec[2], 2)
        self.minabs = rows(ws.vec[1], 2)         # reuses the signs' buffer
        # at slope cell q: dp = diff[q+s], dm = diff[q]
        self.dp, self.dm = self.diff[:, s:], self.diff[:, :-s]
        self.sign_dp, self.sign_dm = self.sign[:, s:], self.sign[:, :-s]
        self.w_left, self.w_right = wp[:, s:-2 * s], wp[:, 2 * s:-s]
        self.slope_left, self.slope_right = self.slope[:, :-s], self.slope[:, s:]
        self.wl, self.wr = (rows(buf, 3) for buf in ws.vec[:2])   # over diff and sign
        self.ul = rows(ws.pad[axis], 3)          # padded primitives are spent by then
        fl = _shaped(ws.vec[2], (4, nx + 1, ny) if axis == 0 else (4,) + padded)
        self.fl = fl.reshape(4, -1)[:, :size - 3 * s]   # so are the slopes
        self.ur, self.fr = (rows(buf, 3) for buf in ws.vec[3:])
        self.sl, self.sr, self.scratch = (rows(buf, 3, channels=False) for buf in ws.sca)
        self.f_hi, self.f_lo = fl[along(1, n + 1)], fl[along(0, n)]

    def fill_ghosts(self) -> None:
        for ghost, src in self.ghosts:
            np.copyto(ghost, src)

    def divergence(self, out, gamma, h) -> None:
        """out = (F_{i+1/2} - F_{i-1/2}) / h from the filled padded primitives."""
        d, t = self.diff, self.slope
        np.subtract(self.w_hi, self.w_lo, out=d)   # d[q] = W[q+s] - W[q]
        # minmod(dp, dm) = 0.5*(sign(dp) + sign(dm)) * min(|dp|, |dm|)
        np.sign(d, out=self.sign)
        np.abs(d, out=d)
        np.add(self.sign_dp, self.sign_dm, out=t)
        t *= 0.5
        np.minimum(self.dp, self.dm, out=self.minabs)
        t *= self.minabs
        t *= 0.5                                   # half slope
        np.add(self.w_left, self.slope_left, out=self.wl)
        np.subtract(self.w_right, self.slope_right, out=self.wr)
        _interface_side(self.wl, self.ul, self.fl, self.sl, self.scratch, gamma, self.axis)
        _interface_side(self.wr, self.ur, self.fr, self.sr, self.scratch, gamma, self.axis)
        # Rusanov: 0.5*(Fl + Fr) - 0.5*smax*(Ur - Ul)
        self.fl += self.fr
        self.fl *= 0.5
        np.maximum(self.sl, self.sr, out=self.sl)
        self.sl *= 0.5
        self.ur -= self.ul
        self.ur *= self.sl
        self.fl -= self.ur
        np.subtract(self.f_hi, self.f_lo, out=out)
        out /= h


class _Workspace:
    """Every buffer one fv_step needs on an (nx, ny) grid, allocated once.

    Flat buffers are reshaped as views for either sweep axis: as the
    (4, L) flat rows of `_Sweep`, and as (4, nx, ny) fields.  A buffer is
    reused once its contents are spent: a sweep's interface states go
    into its differences and signs, its left conserved state into its
    padded primitives, and the x divergence into the x padded buffer,
    which the y sweep does not touch.
    """

    def __init__(self, nx, ny):
        self.shape = (nx, ny)
        cells = (nx + 4) * (ny + 4)
        self.pad = [np.empty(4 * cells) for _ in range(2)]   # one per sweep axis
        self.vec = [np.empty(4 * cells) for _ in range(5)]   # four-channel arrays
        self.sca = [np.empty(cells) for _ in range(3)]       # one-channel arrays
        self.U, self.U1 = np.empty((4, nx, ny)), np.empty((4, nx, ny))
        self.div = _shaped(self.pad[0], (4, nx, ny))
        self.div_y = _shaped(self.vec[3], (4, nx, ny))
        self.a, self.b = (_shaped(buf, (nx, ny)) for buf in self.sca[:2])
        self.x, self.y = _Sweep(self, 0), _Sweep(self, 1)


_LOCAL = threading.local()


def _workspace(nx: int, ny: int) -> _Workspace:
    """This thread's workspace for the grid; a new grid replaces the old one."""
    ws = getattr(_LOCAL, "workspace", None)
    if ws is None or ws.shape != (nx, ny):
        ws = _LOCAL.workspace = None          # free the old buffers first
        ws = _LOCAL.workspace = _Workspace(nx, ny)
    return ws


def _flux_divergence(ws: _Workspace, U, gamma: float, grid: GridSpec) -> np.ndarray:
    """ws.div = sum over both axes of the interface-flux differences of U."""
    W = ws.x.interior
    _cons_to_prim(W, U, gamma, ws.a)
    if np.min(W[0]) <= 0.0 or np.min(W[3]) <= 0.0:
        raise SolverError("positivity lost in intermediate stage")
    np.copyto(ws.y.interior, W)
    ws.x.fill_ghosts()
    ws.y.fill_ghosts()
    ws.x.divergence(ws.div, gamma, grid.dx)
    ws.y.divergence(ws.div_y, gamma, grid.dy)
    ws.div += ws.div_y
    return ws.div


def max_stable_dt(s: Snapshot, grid: GridSpec, gamma: float, cfl: float = 1.0) -> float:
    """CFL bound cfl / (sx/dx + sy/dy) from the current max wave speeds."""
    c = np.sqrt(gamma * s.p / s.rho)
    sx = float(np.max(np.abs(s.vx) + c))
    sy = float(np.max(np.abs(s.vy) + c))
    return cfl / (sx / grid.dx + sy / grid.dy)


def fv_step(u: Snapshot, dt: float, gamma: float = GAMMA_DEFAULT,
            grid: GridSpec | None = None, cfl: float | None = None) -> Snapshot:
    """One conservative SSP-RK2 update with periodic boundaries.

    With ``cfl`` the step is min(dt, max_stable_dt(u, grid, gamma, cfl)),
    so ``dt`` is the longest step wanted; either way a step beyond the
    CFL bound at cfl 1 raises SolverError.  The wave speeds are computed
    once per call.  Apart from the CFL check and the final validation it
    allocates only the returned snapshot's fields; every intermediate
    lives in this thread's workspace for the grid.
    """
    if grid is None:
        grid = GridSpec(nx=u.rho.shape[0], ny=u.rho.shape[1])
    limit = max_stable_dt(u, grid, gamma, 1.0 if cfl is None else cfl)
    if cfl is not None:
        dt = min(limit, dt)
    if not dt > 0.0:
        raise SolverError("dt must be positive", u.t)
    if cfl is not None:
        limit /= cfl                           # the bound at cfl 1
    if dt > limit * (1.0 + 1e-12):
        raise SolverError(f"dt={dt:.3e} violates the CFL bound", u.t)
    ws = _workspace(*u.rho.shape)
    U, U1 = ws.U, ws.U1
    _prim_to_cons(U, u.rho, u.vx, u.vy, u.p, gamma, ws.a, ws.b)
    try:
        div = _flux_divergence(ws, U, gamma, grid)
        div *= dt
        np.subtract(U, div, out=U1)            # U1 = U + dt*k1 with k1 = -div
        div = _flux_divergence(ws, U1, gamma, grid)
    except SolverError as exc:
        raise SolverError(str(exc), u.t) from None
    div *= dt
    U1 += U                                    # U2 = 0.5*(U + U1 + dt*k2)
    U1 -= div
    U1 *= 0.5
    W = np.empty(U1.shape)
    _cons_to_prim(W, U1, gamma, ws.a)
    out = Snapshot(data=W, t=float(u.t + dt))
    out.validate()
    return out


def trajectory_snapshots(spec: ICSpec, grid: GridSpec, gamma: float = GAMMA_DEFAULT,
                         cfl: float = CFL_DEFAULT, n_snapshots: int = N_SNAPSHOTS,
                         t_final: float = T_FINAL) -> Iterator[Snapshot]:
    """Evolve an initial condition, yielding each of the uniformly spaced
    snapshots as the solver reaches its time, so that a caller can store
    it before the next one is computed.

    The solver substeps adaptively under the CFL bound between output
    times; the snapshot times are exact multiples of
    t_final/(n_snapshots-1).
    """
    cur = make_initial_condition(spec, grid, gamma)
    yield cur
    for target in np.linspace(0.0, t_final, n_snapshots)[1:]:
        while cur.t < target - 1e-13:
            cur = fv_step(cur, target - cur.t, gamma, grid, cfl)
        cur = replace(cur, t=float(target))   # clear substep float drift
        yield cur


def solve_trajectory(spec: ICSpec, grid: GridSpec, gamma: float = GAMMA_DEFAULT,
                     cfl: float = CFL_DEFAULT, n_snapshots: int = N_SNAPSHOTS,
                     t_final: float = T_FINAL) -> Trajectory:
    """The trajectory of `trajectory_snapshots`, held in memory."""
    snaps = list(trajectory_snapshots(spec, grid, gamma, cfl, n_snapshots, t_final))
    return Trajectory(ic=spec, snapshots=snaps, times=np.linspace(0.0, t_final, n_snapshots))


def conservation_drift(traj: Trajectory, gamma: float) -> dict:
    """Worst relative drift of the four discrete totals over a trajectory,
    whose snapshots are read once, in order.

    Momentum totals can be legitimately near zero (antisymmetric flows),
    so momentum drift is normalized by max(|P(0)|, M(0) * mean sound
    speed at t=0) rather than by |P(0)| alone.
    """
    snaps = iter(traj.snapshots)
    s0 = next(snaps)
    ref = totals(s0, gamma)
    c0 = float(np.mean(np.sqrt(gamma * s0.p / s0.rho)))
    scale = np.array([abs(ref[0]),
                      max(abs(ref[1]), ref[0] * c0),
                      max(abs(ref[2]), ref[0] * c0),
                      abs(ref[3])])
    worst = np.zeros(4)
    for s in snaps:
        worst = np.maximum(worst, np.abs(totals(s, gamma) - ref) / scale)
    return dict(zip(("mass", "momentum_x", "momentum_y", "energy"), worst))


# ---------------------------------------------------------------------------
# Initial-condition families
#
# Parameter ranges below are this package's own desk-scale choices; the
# families are qualitative analogs, not clones of any external dataset.

_STATE_RHO = (0.4, 1.4)
_STATE_P = (0.4, 1.4)
_STATE_V = (-0.25, 0.25)


def _draw_state(rng: RngStream) -> list[float]:
    u = rng.uniform(size=4)
    return [
        _STATE_RHO[0] + u[0] * (_STATE_RHO[1] - _STATE_RHO[0]),
        _STATE_V[0] + u[1] * (_STATE_V[1] - _STATE_V[0]),
        _STATE_V[0] + u[2] * (_STATE_V[1] - _STATE_V[0]),
        _STATE_P[0] + u[3] * (_STATE_P[1] - _STATE_P[0]),
    ]


def _quadrant_fields(grid, x_of_y, y_of_x, states):
    x, y = grid.cell_centers()
    right = x >= x_of_y(y)
    top = y >= y_of_x(x)
    fields = np.empty((4, grid.nx, grid.ny))
    masks = [~right & ~top, right & ~top, ~right & top, right & top]
    for mask, st in zip(masks, states):
        for c in range(4):
            fields[c][mask] = st[c]
    return fields


def _build_rp(params, grid, gamma):
    x0, y0 = params["x0"], params["y0"]
    return _quadrant_fields(grid, lambda y: x0, lambda x: y0, params["states"])


def _build_rpui(params, grid, gamma):
    x0, y0 = params["x0"], params["y0"]
    tx, ty = params["tilt_x"], params["tilt_y"]
    ax, ay = params["wave_amp_x"], params["wave_amp_y"]
    kx, ky = params["wave_k_x"], params["wave_k_y"]

    def x_of_y(y):
        return x0 + tx * (y - 0.5) + ax * np.sin(2.0 * np.pi * kx * y)

    def y_of_x(x):
        return y0 + ty * (x - 0.5) + ay * np.sin(2.0 * np.pi * ky * x)

    return _quadrant_fields(grid, x_of_y, y_of_x, params["states"])


def _build_crp(params, grid, gamma):
    x, y = grid.cell_centers()
    dx = x - params["x0"]
    dy = y - params["y0"]
    theta = np.arctan2(dy, dx)
    r_if = params["r0"] * (1.0 + sum(
        a * np.cos((k + 2) * theta + ph)
        for k, (a, ph) in enumerate(zip(params["amps"], params["phases"]))))
    inside = np.hypot(dx, dy) <= r_if
    fields = np.empty((4, grid.nx, grid.ny))
    for c in range(4):
        fields[c] = np.where(inside, params["inside"][c], params["outside"][c])
    return fields


def _wrapped_dist2(x, y, cx, cy, lx, ly):
    dx = np.remainder(x - cx + 0.5 * lx, lx) - 0.5 * lx
    dy = np.remainder(y - cy + 0.5 * ly, ly) - 0.5 * ly
    return dx * dx + dy * dy


def _build_gauss(params, grid, gamma):
    x, y = grid.cell_centers()
    rho = np.full((grid.nx, grid.ny), params["rho0"])
    p = np.full((grid.nx, grid.ny), params["p0"])
    for b in params["bumps"]:
        d2 = _wrapped_dist2(x, y, b["x"], b["y"], grid.lx, grid.ly)
        g = np.exp(-0.5 * d2 / (b["sigma"] ** 2))
        rho = rho + b["amp_rho"] * g
        p = p + b["amp_p"] * g
    z = np.zeros_like(rho)
    return np.stack([rho, z, z, p])


def _build_kh(params, grid, gamma):
    x, y = grid.cell_centers()
    yc = params.get("y_c", 0.5)
    hw = params.get("half_width", 0.25)
    s = np.tanh((hw - np.abs(y - yc)) / params["delta"])
    vx = params["u0"] * s
    rho = params["rho_out"] + (params["rho_in"] - params["rho_out"]) * 0.5 * (1.0 + s)
    sig = params.get("vy_sigma", 0.05)
    bump = (np.exp(-0.5 * ((y - (yc - hw)) / sig) ** 2)
            + np.exp(-0.5 * ((y - (yc + hw)) / sig) ** 2))
    vy = params["amp"] * np.sin(2.0 * np.pi * params["k_mode"] * x) * bump
    p = np.full_like(rho, params["p0"])
    return np.stack([rho, vx, vy, p])


def shock_jump_state(rho1: float, p1: float, mach: float, gamma: float):
    """Post-shock (rho, u, p) behind a right-moving shock into gas at rest."""
    m2 = mach * mach
    p2 = p1 * (1.0 + 2.0 * gamma / (gamma + 1.0) * (m2 - 1.0))
    rho2 = rho1 * (gamma + 1.0) * m2 / ((gamma - 1.0) * m2 + 2.0)
    c1 = np.sqrt(gamma * p1 / rho1)
    u2 = 2.0 / (gamma + 1.0) * (mach - 1.0 / mach) * c1
    return rho2, u2, p2


def _build_rm(params, grid, gamma):
    x, y = grid.cell_centers()
    rho1, p1 = params["rho1"], params["p1"]
    rho_s, u_s, p_s = shock_jump_state(rho1, p1, params["mach"], gamma)
    xi = params["x_interface"] + sum(
        a * np.cos(2.0 * np.pi * k * y + ph)
        for a, k, ph in zip(params["amps"], params["modes"], params["phases"]))
    rho = np.where(x < params["x_shock"], rho_s,
                   np.where(x >= xi, params["rho2"], rho1))
    vx = np.where(x < params["x_shock"], u_s, 0.0)
    p = np.where(x < params["x_shock"], p_s, p1)
    vy = np.zeros_like(rho)
    return np.stack([rho, vx, vy, p])


_BUILDERS = {
    "rp": _build_rp,
    "crp": _build_crp,
    "gauss": _build_gauss,
    "kh": _build_kh,
    "rpui": _build_rpui,
    "rm": _build_rm,
}


def make_initial_condition(spec: ICSpec, grid: GridSpec,
                           gamma: float = GAMMA_DEFAULT) -> Snapshot:
    """Realize an ICSpec on the grid as the t=0 snapshot for adiabatic index gamma."""
    fields = _BUILDERS[spec.family](spec.params, grid, gamma)
    if np.min(fields[0]) <= 0.0 or np.min(fields[3]) <= 0.0:
        raise InvalidInitialCondition(
            f"{spec.family} parameters yield non-positive density/pressure")
    if not np.all(np.isfinite(fields)):
        raise InvalidInitialCondition(f"{spec.family} parameters yield non-finite fields")
    return Snapshot.from_fields(fields, 0.0)


def _uni(rng: RngStream, lo: float, hi: float, size=None):
    return lo + rng.uniform(size=size) * (hi - lo)


def _sample_rp(rng: RngStream) -> dict:
    return {
        "x0": float(_uni(rng, 0.4, 0.6)),
        "y0": float(_uni(rng, 0.4, 0.6)),
        "states": [_draw_state(rng) for _ in range(4)],
    }


def _sample_crp(rng: RngStream) -> dict:
    n_modes = 3
    return {
        "x0": float(_uni(rng, 0.4, 0.6)),
        "y0": float(_uni(rng, 0.4, 0.6)),
        "r0": float(_uni(rng, 0.15, 0.28)),
        "amps": [float(a) for a in _uni(rng, 0.0, 0.12, size=n_modes)],
        "phases": [float(a) for a in _uni(rng, 0.0, 2.0 * np.pi, size=n_modes)],
        "inside": _draw_state(rng),
        "outside": _draw_state(rng),
    }


def _sample_gauss(rng: RngStream) -> dict:
    rho0 = float(_uni(rng, 0.8, 1.2))
    p0 = float(_uni(rng, 0.8, 1.2))
    nb = int(rng.integers(2, 5))
    bumps = []
    for _ in range(nb):
        u = rng.uniform(size=5)
        # negative amplitudes capped so stacked bumps keep rho, p positive
        lo_rho, lo_p = -0.6 * rho0 / nb, -0.6 * p0 / nb
        bumps.append({
            "x": float(u[0]),
            "y": float(u[1]),
            "sigma": float(0.05 + 0.07 * u[2]),
            "amp_rho": float(lo_rho + u[3] * (0.45 - lo_rho)),
            "amp_p": float(lo_p + u[4] * (0.45 - lo_p)),
        })
    return {"rho0": rho0, "p0": p0, "bumps": bumps}


def _sample_kh(rng: RngStream) -> dict:
    return {
        "rho_in": float(_uni(rng, 1.6, 2.4)),
        "rho_out": float(_uni(rng, 0.8, 1.2)),
        "u0": float(_uni(rng, 0.3, 0.6)),
        "delta": float(_uni(rng, 0.02, 0.05)),
        "amp": float(_uni(rng, 0.005, 0.02)),
        "k_mode": int(rng.integers(1, 3)),
        "p0": float(_uni(rng, 1.5, 2.5)),
    }


def _sample_rpui(rng: RngStream) -> dict:
    params = _sample_rp(rng)
    params.update({
        "x0": float(_uni(rng, 0.35, 0.65)),
        "y0": float(_uni(rng, 0.35, 0.65)),
        "tilt_x": float(_uni(rng, -0.2, 0.2)),
        "tilt_y": float(_uni(rng, -0.2, 0.2)),
        "wave_amp_x": float(_uni(rng, 0.0, 0.05)),
        "wave_amp_y": float(_uni(rng, 0.0, 0.05)),
        "wave_k_x": int(rng.integers(1, 3)),
        "wave_k_y": int(rng.integers(1, 3)),
    })
    return params


def _sample_rm(rng: RngStream) -> dict:
    n_modes = 2
    return {
        "rho1": 1.0,
        "p1": 1.0,
        "mach": float(_uni(rng, 1.15, 1.7)),
        "x_shock": float(_uni(rng, 0.15, 0.25)),
        "x_interface": float(_uni(rng, 0.45, 0.6)),
        "rho2": float(_uni(rng, 1.6, 3.0)),
        "amps": [float(a) for a in _uni(rng, 0.005, 0.04, size=n_modes)],
        "modes": [1, 2],
        "phases": [float(a) for a in _uni(rng, 0.0, 2.0 * np.pi, size=n_modes)],
    }


_SAMPLERS = {
    "rp": _sample_rp,
    "crp": _sample_crp,
    "gauss": _sample_gauss,
    "kh": _sample_kh,
    "rpui": _sample_rpui,
    "rm": _sample_rm,
}


def sample_ic(family: str, seed: int, index: int = 0) -> ICSpec:
    """Draw a random ICSpec; deterministic in (family, seed, index)."""
    if family not in FAMILIES:
        raise InvalidInitialCondition(f"unknown IC family {family!r}")
    rng = RngStream(seed, mix64(FAMILIES.index(family), index))
    return ICSpec(family=family, params=_SAMPLERS[family](rng),
                  seed=mix64(seed, FAMILIES.index(family), index))


def check_split_fractions(fractions) -> np.ndarray:
    """The train/val/test fractions as an array; ValueError unless they are
    three non-negatives summing to 1."""
    fr = np.asarray(fractions, dtype=float)
    if fr.size != 3 or abs(fr.sum() - 1.0) > 1e-9 or not np.all(fr >= 0.0):
        raise ValueError(f"split fractions must be 3 non-negatives summing to 1, got {fractions}")
    return fr


def split_indices(n: int, fractions, seed: int) -> dict:
    """Disjoint shuffled train/val/test index lists with exact counts."""
    fr = check_split_fractions(fractions)
    perm = RngStream(seed, mix64(0x5B117)).permutation(n)
    n_train = int(round(fr[0] * n))
    n_val = int(round(fr[1] * n))
    n_val = min(n_val, n - n_train)
    return {
        "train": sorted(int(i) for i in perm[:n_train]),
        "val": sorted(int(i) for i in perm[n_train:n_train + n_val]),
        "test": sorted(int(i) for i in perm[n_train + n_val:]),
    }


def check_solver_inputs(families, gamma: float, cfl: float) -> None:
    """ValueError unless every IC family is known, gamma > 1 and
    0 < cfl <= 1 (fv_step refuses a step above the CFL bound of 1)."""
    for f in families:
        if f not in FAMILIES:
            raise InvalidInitialCondition(f"unknown IC family {f!r}")
    if not gamma > 1.0:
        raise ValueError(f"gamma must be > 1, got {gamma}")
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must be in (0, 1], got {cfl}")


def assemble_dataset(trajectories: list, grid: GridSpec, seed: int, families,
                     split_fractions, gamma: float) -> Dataset:
    """Split solved trajectories and attach train-split normalization."""
    split = split_indices(len(trajectories), split_fractions, seed)
    train = [trajectories[i] for i in split["train"]]
    norm = Normalization.from_trajectories(train) if train else None
    return Dataset(grid=grid, gamma=gamma, trajectories=trajectories, split=split,
                   normalization=norm, seed=seed, families=tuple(families))


def generate_dataset(families, n_per_family: int, grid: GridSpec, seed: int,
                     split_fractions=SPLIT_DEFAULT,
                     gamma: float = GAMMA_DEFAULT, cfl: float = CFL_DEFAULT,
                     n_snapshots: int = N_SNAPSHOTS, jobs: int = 1, store=list) -> Dataset:
    """Solve n_per_family trajectories per family into a split dataset.

    Deterministic given (families, n_per_family, grid, seed): the i-th
    trajectory of a family depends only on those values, so the result
    is the same for every ``jobs``.  With ``jobs`` > 1 the trajectories
    are solved by a pool of at most that many worker processes, started
    fresh (spawned) rather than forked from a process that may hold
    threads, and taken from it one at a time, in order.

    ``store`` receives each trajectory's snapshots, in order, as an
    iterable that (with one job) solves each snapshot as it is read, and
    returns the sequence the trajectory keeps: `list` holds them in
    memory, and `storage.SnapshotScratch.append` writes each to a file
    as it arrives.
    """
    check_solver_inputs(families, gamma, cfl)
    check_split_fractions(split_fractions)
    specs = [sample_ic(fam, seed, i) for fam in families for i in range(n_per_family)]
    times = np.linspace(0.0, T_FINAL, n_snapshots)
    with contextlib.ExitStack() as stack:
        if jobs > 1 and len(specs) > 1:
            pool = stack.enter_context(
                multiprocessing.get_context("spawn").Pool(min(jobs, len(specs))))
            solve = partial(solve_trajectory, grid=grid, gamma=gamma, cfl=cfl,
                            n_snapshots=n_snapshots)
            solved = (tr.snapshots for tr in pool.imap(solve, specs))
        else:
            solved = (trajectory_snapshots(spec, grid, gamma, cfl, n_snapshots)
                      for spec in specs)
        trajectories = [Trajectory(ic=spec, snapshots=store(snaps), times=times)
                        for spec, snaps in zip(specs, solved)]
    return assemble_dataset(trajectories, grid, seed, families, split_fractions, gamma)
