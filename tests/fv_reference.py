"""Roll-based finite-volume step used as a bit-exact oracle for the solver.

This is the straightforward array formulation of one SSP-RK2 step:
neighbours come from ``np.roll``, every intermediate is a fresh array,
and fluxes are built from stacked (4, nx, ny) primitives.  The solver in
``pdettc.euler`` computes the same elements with the same operations in
the same order over ghost cells and a reused workspace, so the two must
agree bit for bit.  Nothing here calls the solver.
"""

from __future__ import annotations

import numpy as np


class ReferenceSolverError(RuntimeError):
    """Positivity lost in an intermediate stage of the reference step."""


def prim_to_cons(W: np.ndarray, gamma: float) -> np.ndarray:
    rho, vx, vy, p = W
    return np.stack([
        rho, rho * vx, rho * vy,
        p / (gamma - 1.0) + 0.5 * rho * (vx * vx + vy * vy),
    ])


def cons_to_prim(U: np.ndarray, gamma: float) -> np.ndarray:
    rho = U[0]
    vx = U[1] / rho
    vy = U[2] / rho
    p = (gamma - 1.0) * (U[3] - 0.5 * rho * (vx * vx + vy * vy))
    return np.stack([rho, vx, vy, p])


def minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 0.5 * (np.sign(a) + np.sign(b)) * np.minimum(np.abs(a), np.abs(b))


def phys_flux(W: np.ndarray, gamma: float, axis: int) -> np.ndarray:
    rho, vx, vy, p = W
    en = p / (gamma - 1.0) + 0.5 * rho * (vx * vx + vy * vy)
    un = vx if axis == 0 else vy
    m = rho * un
    f = np.empty_like(W)
    f[0] = m
    f[1] = m * vx
    f[2] = m * vy
    f[3] = (en + p) * un
    f[1 + axis] += p
    return f


def flux_divergence(W: np.ndarray, gamma: float, h: float, axis: int) -> np.ndarray:
    """(F_{i+1/2} - F_{i-1/2}) / h along one direction, periodic."""
    ax = 1 + axis
    dm = W - np.roll(W, 1, axis=ax)
    dp = np.roll(W, -1, axis=ax) - W
    slope = minmod(dp, dm)
    wl = W + 0.5 * slope                       # left state at interface i+1/2
    wr = np.roll(W - 0.5 * slope, -1, axis=ax)  # right state at interface i+1/2
    ul = prim_to_cons(wl, gamma)
    ur = prim_to_cons(wr, gamma)
    cl = np.sqrt(gamma * wl[3] / wl[0])
    cr = np.sqrt(gamma * wr[3] / wr[0])
    un_l = wl[1 + axis]
    un_r = wr[1 + axis]
    smax = np.maximum(np.abs(un_l) + cl, np.abs(un_r) + cr)
    f = 0.5 * (phys_flux(wl, gamma, axis) + phys_flux(wr, gamma, axis)) \
        - 0.5 * smax * (ur - ul)
    return (f - np.roll(f, 1, axis=ax)) / h


def rhs(U: np.ndarray, gamma: float, dx: float, dy: float) -> np.ndarray:
    W = cons_to_prim(U, gamma)
    if np.min(W[0]) <= 0.0 or np.min(W[3]) <= 0.0:
        raise ReferenceSolverError("positivity lost in intermediate stage")
    return -(flux_divergence(W, gamma, dx, axis=0)
             + flux_divergence(W, gamma, dy, axis=1))


def step_fields(fields: np.ndarray, dt: float, gamma: float, dx: float,
                dy: float) -> np.ndarray:
    """Primitive (4, nx, ny) fields after one SSP-RK2 step of size dt."""
    U = prim_to_cons(fields, gamma)
    k1 = rhs(U, gamma, dx, dy)
    U1 = U + dt * k1
    k2 = rhs(U1, gamma, dx, dy)
    U2 = 0.5 * (U + U1 + dt * k2)
    return cons_to_prim(U2, gamma)
