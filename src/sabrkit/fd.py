"""Explicit finite-difference benchmark solver for the cut-off SABR
pricing PDE

    w_t = sigma^2 [ (w_xx - w_x)/2 + nu rho w_xs + nu^2 w_ss / 2 ]

on one fixed rectangle, x in [-3, 3] on a uniform grid and sigma on a
geometric-progression grid about 0.18 up to 1.6803, with Black-Scholes
boundary data, a refinement sequence with Richardson error estimation,
and a PDE-residual diagnostic for the closed-form approximations. Strike
is normalized to K = 1, r = 0. A solve takes the refinement level alone,
a nonnegative integer; only cutoff_sensitivity solves on a larger
rectangle, the fixed one grown by one level-0 mesh layer on every side.
One function, _level_grid, checks the inputs and builds each grid once,
nodes and time-step count together, before any march starts.

Each time step is one call of scipy's DIA product kernel: the explicit
step I + dt L is built once per solve as nine weight diagonals over the
whole flattened (x, sigma) grid, with zero rows for the edge nodes and no
matrix object around them. The boundary data is the nu = 0 solution,
`core.c_rel`, written on all four edges of the rectangle after each
product; one array call computes the edge values of a block of 32 time
steps. Only steps that the step's growth could take past the bound are
checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import DomainError, _require_at, _require_int, c_rel
from .expansion import SabrParams

__all__ = [
    "FdGrid",
    "FdSolution",
    "FdComparison",
    "FdInstabilityError",
    "ResidualRegion",
    "solve",
    "solve_sequence",
    "compare",
    "richardson_ratios",
    "cutoff_sensitivity",
    "residual_norm",
]

# (y, sigma, t) -> relative price, broadcasting over numpy arrays
PriceFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


# the most node-steps (grid nodes x time steps) one solve may march: level 4
# of every FD preset fits (at most 4.0e9, fd1-row1's cut-off grid), and at
# about 11 ns a node-step (fd1-row7 at level 5: 42 s for 3.8e9 node-steps,
# one core of a 2-vCPU Xeon) the limit is about 55 s of marching
_MAX_NODE_STEPS = 5_000_000_000

# the explicit step's safety factor against the stability bound
_C_SAFETY = 0.9

# the cut-off rectangle at level 0: x in [-_X_MAX, _X_MAX] on _NX0 nodes and
# sigma on _NSIGMA0 geometric nodes from _SIGMA_CENTER**2 / _SIGMA_MAX up to
# _SIGMA_MAX, neighbours _R0 apart. Both counts are odd, so x = 0 and
# sigma = _SIGMA_CENTER are nodes of every level, inside the interest window
_X_MAX, _NX0 = 3.0, 13
_SIGMA_CENTER, _SIGMA_MAX, _NSIGMA0 = 0.18, 1.6803, 19
_R0 = (_SIGMA_MAX / (_SIGMA_CENTER**2 / _SIGMA_MAX)) ** (1.0 / (_NSIGMA0 - 1))
# the interest window: x in [-1, 1] and the level-0 sigma nodes next to the centre
_WINDOW_X = (-1.0, 1.0)
_WINDOW_S = (_SIGMA_CENTER / _R0, _SIGMA_CENTER * _R0)


class FdInstabilityError(RuntimeError):
    """Explicit time step produced a non-finite or exploding node."""


@dataclass(frozen=True)
class FdGrid:
    x_nodes: np.ndarray
    sigma_nodes: np.ndarray
    level: int
    n_time_steps: int

    @property
    def dx(self) -> float:
        return float(self.x_nodes[1] - self.x_nodes[0])


@dataclass
class FdSolution:
    grid: FdGrid
    values: np.ndarray  # shape (nx, nsigma)
    params: SabrParams
    time: float
    window_x_idx: np.ndarray
    window_s_idx: np.ndarray
    est_error: float = float("nan")

    @property
    def restriction(self) -> np.ndarray:
        """Values sampled on the interest window I x J."""
        return self.values[np.ix_(self.window_x_idx, self.window_s_idx)]


@dataclass(frozen=True)
class FdComparison:
    l2: float
    linf: float
    log_l2: float


# time steps whose edge values come from one c_rel call
_EDGE_BLOCK = 32


def _edge_nodes(grid: FdGrid) -> tuple[np.ndarray, np.ndarray]:
    # row and column indices of the nodes on the rectangle's four edges
    ring = np.ones((grid.x_nodes.size, grid.sigma_nodes.size), dtype=bool)
    ring[1:-1, 1:-1] = False
    return np.nonzero(ring)


def _step_matrix(
    grid: FdGrid, params: SabrParams, dt: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """The explicit step I + dt L as (offsets, data, alpha): the nine
    ascending int32 offsets and (9, nx * ns) diagonals, in scipy's DIA
    layout over the flattened (x, sigma) grid with zero edge-node rows,
    and the largest absolute row sum, the most one step can grow max|w| by.

    L is the 9-point operator: central differences in x and nonuniform
    central differences in sigma, with the mixed term as the sigma-derivative
    of the central x-derivative. Its weights depend only on the sigma
    index. The offsets ascend, so the DIA product adds each row's 9 terms in
    ascending column order, as a CSR product of the same rows does."""
    x, s = grid.x_nodes, grid.sigma_nodes
    nx, ns = x.size, s.size
    dx = grid.dx
    nu, rho = params.nu, params.rho
    sc = s[1:-1]
    hm = sc - s[:-2]
    hp = s[2:] - sc
    denom = hm * hp * (hm + hp)
    # nonuniform central second derivative in sigma
    css = (2.0 * hp / denom, -2.0 / (hm * hp), 2.0 * hm / denom)
    # nonuniform central first derivative in sigma (for the cross term)
    cs = (-(hp**2) / denom, (hp - hm) / (hm * hp), (hm**2) / denom)
    scale = dt * sc**2
    cross = nu * rho / (2.0 * dx)
    xx = 0.5 / dx**2
    x1 = 0.25 / dx
    # weights per sigma column, ordered as the offsets below
    weights = np.empty((9, ns - 2))
    for c in range(3):
        weights[c] = -cross * cs[c]
        weights[3 + c] = 0.5 * nu * nu * css[c]
        weights[6 + c] = cross * cs[c]
    weights[1] += xx + x1
    weights[4] -= 2.0 * xx
    weights[7] += xx - x1
    weights *= scale
    weights[4] += 1.0
    # the weight of row r on diagonal k sits at column r + offsets[k]:
    # node (i + di, j + dj) of the interior node (i, j)
    stencil = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
    data = np.zeros((9, nx, ns))
    for k, (di, dj) in enumerate(stencil):
        data[k, 1 + di : nx - 1 + di, 1 + dj : ns - 1 + dj] = weights[k]
    offsets = np.array([di * ns + dj for di, dj in stencil], dtype=np.int32)
    alpha = float(np.abs(weights).sum(axis=0).max())
    return offsets, data.reshape(9, nx * ns), alpha


def stable_time_steps(s: np.ndarray, dx: float, params: SabrParams, T: float) -> int:
    """Time-step count from the explicit stability bound on the sigma nodes
    s and the x spacing dx, ds a node's smaller sigma spacing:

    dt <= 0.9 / max over nodes of sigma^2 (1/dx^2 + nu^2/ds^2 + |nu rho|/(dx ds)).
    """
    ds_local = np.r_[s[1] - s[0], s[1:] - s[:-1]]  # on the geometric grid, the one below
    try:
        with np.errstate(over="ignore"):
            rate = s**2 * (
                1.0 / dx**2
                + params.nu**2 / ds_local**2
                + abs(params.nu * params.rho) / (dx * ds_local)
            )
        steps = T / (_C_SAFETY / float(rate.max()))
    except (OverflowError, ZeroDivisionError):  # nu**2 or the rate overflows
        steps = math.inf
    if not math.isfinite(steps):
        raise DomainError(
            f"explicit stability bound needs a non-finite number of time steps "
            f"(nu={params.nu}, T={T})"
        )
    return max(1, math.ceil(steps))


def _level_grid(params: SabrParams, T: float, level: int, grown: bool) -> FdGrid:
    """The rectangle's level-k mesh with its time-step count, after checking
    the inputs. Each refinement halves both mesh widths (arithmetic
    midpoints in x, geometric midpoints in sigma); grown adds one level-0
    mesh layer on every side. The level is a nonnegative integer (a bool is
    refused, a numpy integer is stored as an int). Raises DomainError
    before any array of the grid's size exists when the grid has more than
    _MAX_NODE_STEPS nodes, or its march more node-steps than that."""
    if params.kappa0 != 0.0:
        raise DomainError("FD benchmark is only available for kappa0 = 0")
    if not (0.0 < T < math.inf):
        raise DomainError(f"expiry T must be positive and finite, got {T}")
    level = _require_int(level, "level")
    if level < 0:
        raise DomainError(f"level must be nonnegative, got {level}")
    x_max, sigma_max, nx0, ns0 = _X_MAX, _SIGMA_MAX, _NX0, _NSIGMA0
    if grown:
        x_max, sigma_max = x_max + 2.0 * x_max / (nx0 - 1), sigma_max * _R0
        nx0, ns0 = nx0 + 2, ns0 + 2
    # past 64 levels the grid is only larger; the min spares building 2**level
    nx = (nx0 - 1) * 2 ** min(level, 64) + 1
    ns = (ns0 - 1) * 2 ** min(level, 64) + 1
    nodes = nx * ns
    if nodes > _MAX_NODE_STEPS:
        raise DomainError(
            f"level {level} grid has more nodes than the limit of "
            f"{_MAX_NODE_STEPS} node-steps (nodes x time steps) of one solve"
        )
    x = np.linspace(-x_max, x_max, nx)
    s = np.geomspace(_SIGMA_CENTER**2 / sigma_max, sigma_max, ns)
    nt = stable_time_steps(s, float(x[1] - x[0]), params, T)
    if nodes * nt > _MAX_NODE_STEPS:
        raise DomainError(
            f"FD level {level} needs {nodes} nodes x {nt:.4g} time steps = "
            f"{float(nodes) * nt:.4g} node-steps, more than the limit of "
            f"{_MAX_NODE_STEPS} node-steps"
        )
    return FdGrid(x_nodes=x, sigma_nodes=s, level=level, n_time_steps=nt)


def _instability(w: np.ndarray, grid: FdGrid, t: float) -> FdInstabilityError:
    # the error for a step that left a non-finite or exploding node
    finite = np.isfinite(w)
    if not finite.all():
        bad = np.argwhere(~finite)[0]
        return FdInstabilityError(
            f"non-finite value at x={grid.x_nodes[bad[0]]:.4g}, "
            f"sigma={grid.sigma_nodes[bad[1]]:.4g}, t={t:.4g}"
        )
    bad = np.unravel_index(np.abs(w).argmax(), w.shape)
    return FdInstabilityError(
        f"exploding value {w[bad]:.4g} at x={grid.x_nodes[bad[0]]:.4g}, "
        f"sigma={grid.sigma_nodes[bad[1]]:.4g}, t={t:.4g}"
    )


def solve(params: SabrParams, T: float, level: int) -> FdSolution:
    """Time-march the cut-off PDE to T on the rectangle's level-k mesh:
    level k halves both level-0 mesh widths k times.

    Each step is one call of scipy's DIA product kernel into a reused
    buffer. A step is checked for a non-finite or exploding node only where
    alpha^j max(top, edge values since) could pass the bound, j steps after
    the last check read top, alpha the largest absolute row sum."""
    return _march(params, T, _level_grid(params, T, level, grown=False))


def _march(params: SabrParams, T: float, grid: FdGrid) -> FdSolution:
    # solve's march, on a grid from _level_grid
    nt = grid.n_time_steps
    dt = T / nt
    offsets, data, alpha = _step_matrix(grid, params, dt)
    # private; loads scipy.sparse, which only a solve needs; bitwise tests guard it
    from scipy.sparse._sparsetools import dia_matvec
    shape = (grid.x_nodes.size, grid.sigma_nodes.size)
    flat = np.repeat(_cell_averaged_payoff(grid.x_nodes, grid.dx), shape[1])
    # fixed, since no edge value can exceed it: c_rel(y) <= e^y <= e^x_max,
    # which is below 1e3 or else below 1.01 (e^x_max - 1) <= 1.01 max payoff
    bound = max(1.01 * float(flat.max()), 1e3)
    # a step gives max|w| <= max(alpha max|w|, edge values); alpha's margin
    # covers the sums' rounding, and the finite limit excuses no overflow
    alpha *= 1.0 + 1e-12
    limit = min(bound, 1e300)
    grow, top = 1.0, float(flat.max())
    out = np.empty_like(flat)
    ex, es = _edge_nodes(grid)
    edge = np.ravel_multi_index((ex, es), shape)
    x_edge, s_edge = grid.x_nodes[ex], grid.sigma_nodes[es]
    for k0 in range(0, nt, _EDGE_BLOCK):
        ks = np.arange(k0 + 1, min(k0 + _EDGE_BLOCK, nt) + 1)
        edge_block = c_rel(x_edge, s_edge, (ks * dt)[:, np.newaxis])
        # np.maximum keeps a NaN, which fails every comparison below
        edge_top = float(np.abs(edge_block).max())
        top = float(np.maximum(top, edge_top))
        for k, edge_values in zip(ks, edge_block):
            out.fill(0.0)
            dia_matvec(flat.size, flat.size, 9, flat.size, offsets, data, flat, out)
            flat, out = out, flat
            flat[edge] = edge_values
            grow *= alpha
            if grow * top <= limit:
                continue
            top = float(np.abs(flat).max())
            # NaN and inf fail the comparison too
            if not top <= bound:
                raise _instability(flat.reshape(shape), grid, k * dt)
            grow, top = 1.0, float(np.maximum(top, edge_top))
    x, s, eps = grid.x_nodes, grid.sigma_nodes, 1e-9
    ix = np.flatnonzero((x >= _WINDOW_X[0] - eps) & (x <= _WINDOW_X[1] + eps))
    js = np.flatnonzero((s >= _WINDOW_S[0] * (1 - eps)) & (s <= _WINDOW_S[1] * (1 + eps)))
    return FdSolution(grid, flat.reshape(shape), params, T, window_x_idx=ix, window_s_idx=js)


def _cell_averaged_payoff(x: np.ndarray, h: float) -> np.ndarray:
    # cell average of (e^x - 1)^+ over [x - h/2, x + h/2]; smoothing the
    # kink this way keeps the refinement sequence second order from the
    # coarsest level instead of stalling on the nonsmooth initial data
    a = x - 0.5 * h
    b = x + 0.5 * h
    lo = np.maximum(a, 0.0)
    with np.errstate(over="ignore"):
        avg = (np.exp(b) - np.exp(lo) - (b - lo)) / h
    return np.where(b <= 0.0, 0.0, avg)


def solve_sequence(params: SabrParams, T: float, max_level: int) -> list[FdSolution]:
    """Refinement sequence w_0 .. w_max_level with Richardson error
    estimates est_error = ||w_k - w_{k-1}||_2 / 3 on the interest window."""
    if _require_int(max_level, "max_level") < 0:
        raise DomainError(f"max_level must be nonnegative, got {max_level}")
    # the finest level is the longest march: fail before solving the others
    _level_grid(params, T, max_level, grown=False)
    solutions: list[FdSolution] = []
    for level in range(max_level + 1):
        sol = solve(params, T, level)
        if solutions:
            diff = _level_diff(solutions[-1], sol)
            sol.est_error = diff / 3.0
        solutions.append(sol)
    return solutions


def _level_diff(coarse: FdSolution, fine: FdSolution) -> float:
    # coarse nodes are every 2nd node of the finer grid
    sub = fine.values[::2, ::2]
    delta = sub[np.ix_(coarse.window_x_idx, coarse.window_s_idx)] - coarse.restriction
    return float(np.sqrt(np.mean(delta**2)))


def richardson_ratios(solutions: Sequence[FdSolution]) -> list[float]:
    """Successive-difference ratios ||w_{k+1}-w_k|| / ||w_k-w_{k-1}||."""
    diffs = [_level_diff(a, b) for a, b in zip(solutions, solutions[1:])]
    return [b / a for a, b in zip(diffs, diffs[1:])]


def compare(solution: FdSolution, price_fn: PriceFn) -> FdComparison:
    """Normalized norms of price_fn - w over the interest window, plus the
    normalized l2 norm of the log differences."""
    grid = solution.grid
    t = solution.time
    xs, ss = np.meshgrid(
        grid.x_nodes[solution.window_x_idx],
        grid.sigma_nodes[solution.window_s_idx],
        indexing="ij",
    )
    model = price_fn(xs, ss, t)
    w = solution.restriction
    delta = model - w
    pos = (model > 0.0) & (w > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_delta = np.where(pos, np.log(model) - np.log(w), np.nan)
    return FdComparison(
        l2=float(np.sqrt(np.mean(delta**2))),
        linf=float(np.abs(delta).max()),
        log_l2=float(np.sqrt(np.nanmean(log_delta**2))) if pos.any() else float("nan"),
    )


def cutoff_sensitivity(base: FdSolution) -> float:
    """Change of base's windowed solution when the cut-off rectangle grows
    by one level-0 mesh layer on every side (empirical cut-off error
    estimate): one march of the grown rectangle at base's parameters,
    expiry and level."""
    params, T = base.params, base.time
    big = _march(params, T, _level_grid(params, T, base.grid.level, grown=True))
    delta = big.restriction - base.restriction
    return float(np.sqrt(np.mean(delta**2)))


# nodes of the residual lattice along t, sigma and y
_LATTICE_SIZE = (10, 9, 11)


@dataclass(frozen=True)
class ResidualRegion:
    t_range: tuple[float, float] = (0.1, 1.0)
    sigma_range: tuple[float, float] = (0.1, 0.3)
    y_range: tuple[float, float] = (-0.5, 0.5)

    def lattice(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ranges = (self.t_range, self.sigma_range, self.y_range)
        return tuple(np.linspace(*r, n) for r, n in zip(ranges, _LATTICE_SIZE))


REL_STEP = 1e-3

# the residual's 11 stencil points as (y, sigma, t) offsets in steps:
# t +- ht, the centre, y +- hy, sigma +- hs and the four (y, sigma) corners
_STENCIL = np.array([
    (0, 0, 1), (0, 0, -1), (0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0),
    (0, -1, 0), (1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0),
], dtype=float)


def residual_norm(
    price_fn: PriceFn, params: SabrParams, region: ResidualRegion
) -> float:
    """PDE residual norm of dC/dt - LC over the lattice: the root mean
    square over expiry slices of the per-slice l2 norm, with all
    derivatives by central differences with relative step 1e-3.

    price_fn is called once, on (y, sigma, t) arrays that broadcast to
    (11, 10, 9, 11): the 11 stencil points of every lattice node.
    A model that overflows there gives a non-finite residual, which raises
    DomainError naming the first lattice node it reaches."""
    if region.t_range[0] < 0.1:
        raise DomainError("residual lattice requires T >= 0.1")
    top = max(abs(x) for x in region.sigma_range)
    if top * top == math.inf:
        raise DomainError(f"sigma**2 overflows a float, got sigma = {top}")
    nu, rho = params.nu, params.rho
    # open mesh: (10, 1, 1), (1, 9, 1) and (1, 1, 11), so the
    # stacked inputs broadcast to the lattice without being stored at its size
    t, s, y = np.ix_(*region.lattice())
    ht = REL_STEP * t
    hs = REL_STEP * s
    hy = REL_STEP * np.maximum(1.0, np.abs(y))
    dy, ds, dt = (c.reshape(-1, 1, 1, 1) for c in _STENCIL.T)
    # numpy's overflow warnings are silenced: the finiteness check below
    # catches every non-finite result and names its node
    with np.errstate(all="ignore"):
        (c_tp, c_tm, c0, cyp, cym, csp, csm, c_pp, c_pm, c_mp, c_mm) = price_fn(
            y + dy * hy, s + ds * hs, t + dt * ht
        )
        s2 = s * s
        c_t = (c_tp - c_tm) / (2 * ht)
        c_y = (cyp - cym) / (2 * hy)
        c_yy = (cyp - 2 * c0 + cym) / hy**2
        c_ss = (csp - 2 * c0 + csm) / hs**2
        c_ys = (c_pp - c_pm - c_mp + c_mm) / (4 * hy * hs)
        lc = s2 * (0.5 * (c_yy - c_y) + nu * rho * c_ys + 0.5 * nu * nu * c_ss)
        res = c_t - lc
        square = res * res
        total = float(np.sum(square))
    _require_at(np.isfinite(square), "the PDE residual squared is not finite", y=y, sigma=s, t=t)
    if not math.isfinite(total):
        raise DomainError("the PDE residual norm overflows a float")
    return math.sqrt(total / t.shape[0])
