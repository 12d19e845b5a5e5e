"""Explicit finite-difference benchmark solver for the cut-off SABR
pricing PDE

    w_t = sigma^2 [ (w_xx - w_x)/2 + nu rho w_xs + nu^2 w_ss / 2 ]

on a rectangle with a uniform x-grid and a geometric-progression
sigma-grid, Black-Scholes boundary data, a refinement sequence with
Richardson error estimation, and a PDE-residual diagnostic for the
closed-form approximations. Strike is normalized to K = 1, r = 0.

Each time step is one sparse product: the explicit step I + dt L for
the interior nodes is assembled once per solve as a CSR matrix over the
flattened (x, sigma) grid. The boundary data is the nu = 0 solution,
`core.c_rel`, written on all four edges of the rectangle; one array call
computes the edge values of a block of 32 time steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .core import DomainError, c_rel
from .expansion import SabrParams

__all__ = [
    "FdConfig",
    "FdGrid",
    "FdSolution",
    "FdComparison",
    "FdInstabilityError",
    "ResidualRegion",
    "build_grid",
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
# about 12 ns a node-step the limit is about a minute of marching
_MAX_NODE_STEPS = 5_000_000_000


class FdInstabilityError(RuntimeError):
    """Explicit time step produced a non-finite or exploding node."""


@dataclass(frozen=True)
class FdConfig:
    x_max: float = 3.0
    sigma_center: float = 0.18
    sigma_max: float = 1.6803
    nx0: int = 13
    nsigma0: int = 19
    nt0: int | None = None
    level: int = 0
    c_safety: float = 0.9
    window_x: tuple[float, float] = (-1.0, 1.0)


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
    window_x_idx: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    window_s_idx: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    est_error: float = float("nan")

    @property
    def restriction(self) -> np.ndarray:
        """Values sampled on the interest window I x J."""
        return self.values[np.ix_(self.window_x_idx, self.window_s_idx)]


@dataclass(frozen=True)
class FdComparison:
    l1: float
    l2: float
    linf: float
    log_l2: float


def build_grid(
    x_max: float = 3.0,
    sigma_center: float = 0.18,
    sigma_max: float = 1.6803,
    nx0: int = 13,
    nsigma0: int = 19,
    nt0: int | None = None,
    level: int = 0,
) -> FdGrid:
    """Level-k mesh: each refinement halves both mesh widths (arithmetic
    midpoints in x, geometric midpoints in sigma) and multiplies the
    number of time steps by 4."""
    if not (x_max > 0.0):
        raise DomainError(f"x_max must be positive, got {x_max}")
    if not (0.0 < sigma_center < sigma_max):
        raise DomainError("need 0 < sigma_center < sigma_max")
    if nx0 < 3 or nsigma0 < 3:
        raise DomainError("need at least 3 nodes per direction")
    if level < 0:
        raise DomainError(f"level must be nonnegative, got {level}")
    # past 64 levels the grid is only larger; the min spares building 2**level
    nx = (nx0 - 1) * 2 ** min(level, 64) + 1
    ns = (nsigma0 - 1) * 2 ** min(level, 64) + 1
    if nx * ns > _MAX_NODE_STEPS:
        raise DomainError(
            f"level {level} grid has more nodes than the limit of "
            f"{_MAX_NODE_STEPS} node-steps (nodes x time steps) of one solve"
        )
    sigma_min = sigma_center**2 / sigma_max
    x = np.linspace(-x_max, x_max, nx)
    s = np.geomspace(sigma_min, sigma_max, ns)
    nt = nt0 * 4**level if nt0 is not None else 0
    return FdGrid(x_nodes=x, sigma_nodes=s, level=level, n_time_steps=nt)


def _sigma_ratio(config: FdConfig) -> float:
    # ratio of neighbouring sigma nodes on the level-0 grid
    sigma_min = config.sigma_center**2 / config.sigma_max
    return (config.sigma_max / sigma_min) ** (1.0 / (config.nsigma0 - 1))


# time steps whose edge values come from one c_rel call
_EDGE_BLOCK = 32


def _edge_nodes(grid: FdGrid) -> tuple[np.ndarray, np.ndarray]:
    # row and column indices of the nodes on the rectangle's four edges
    ring = np.ones((grid.x_nodes.size, grid.sigma_nodes.size), dtype=bool)
    ring[1:-1, 1:-1] = False
    return np.nonzero(ring)


def _step_matrix(grid: FdGrid, params: SabrParams, dt: float) -> sparse.csr_matrix:
    """The explicit step I + dt L for the interior nodes, as a CSR matrix
    that maps the flattened (x, sigma) grid to its flattened interior.

    L is the 9-point operator: central differences in x and nonuniform
    central differences in sigma, with the mixed term as the sigma-derivative
    of the central x-derivative. Each row stores its 9 entries in column
    order, so the CSR arrays are written directly: a COO build's full-grid
    index arrays and duplicate summing raise the solver's peak memory."""
    # imported here, its only caller, so that subcommands without an FD
    # solve do not load scipy.sparse
    from scipy import sparse

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
    offsets = np.array(
        [-ns - 1, -ns, -ns + 1, -1, 0, 1, ns - 1, ns, ns + 1], dtype=np.int32
    )
    centre = (
        np.arange(1, nx - 1, dtype=np.int32)[:, None] * ns
        + np.arange(1, ns - 1, dtype=np.int32)[None, :]
    )
    n_int = centre.size
    indices = (centre[:, :, None] + offsets).reshape(-1)
    data = np.broadcast_to(weights.T, (nx - 2, ns - 2, 9)).reshape(-1)
    indptr = np.arange(0, 9 * n_int + 1, 9, dtype=np.int32)
    return sparse.csr_matrix((data, indices, indptr), shape=(n_int, nx * ns))


def stable_time_steps(
    grid: FdGrid, params: SabrParams, T: float, c_safety: float = 0.9
) -> int:
    """Time-step count from the explicit stability bound

    dt <= c_safety / max over nodes of sigma^2 (1/dx^2 + nu^2/ds^2 + |nu rho|/(dx ds)).
    """
    s = grid.sigma_nodes
    dx = grid.dx
    ds_local = np.minimum.reduce(
        [np.r_[s[1] - s[0], s[1:] - s[:-1]], np.r_[s[1:] - s[:-1], s[-1] - s[-2]]]
    )
    try:
        with np.errstate(over="ignore"):
            rate = s**2 * (
                1.0 / dx**2
                + params.nu**2 / ds_local**2
                + abs(params.nu * params.rho) / (dx * ds_local)
            )
        steps = T / (c_safety / float(rate.max()))
    except (OverflowError, ZeroDivisionError):  # nu**2 or the rate overflows
        steps = math.inf
    if not math.isfinite(steps):
        raise DomainError(
            f"explicit stability bound needs a non-finite number of time steps "
            f"(nu={params.nu}, T={T})"
        )
    return max(1, math.ceil(steps))


def _level_grid(params: SabrParams, T: float, config: FdConfig) -> FdGrid:
    """The config's grid with its time-step count, after checking the
    inputs. Raises DomainError before any array of the grid's size exists
    when the march would take more than _MAX_NODE_STEPS node-steps."""
    if params.kappa0 != 0.0:
        raise DomainError("FD benchmark is only available for kappa0 = 0")
    if not (0.0 < T < math.inf):
        raise DomainError(f"expiry T must be positive and finite, got {T}")
    if not (0.0 < config.c_safety < math.inf):
        raise DomainError(
            f"c_safety must be positive and finite, got {config.c_safety}"
        )
    grid = build_grid(
        config.x_max,
        config.sigma_center,
        config.sigma_max,
        config.nx0,
        config.nsigma0,
        config.nt0,
        config.level,
    )
    nt = max(grid.n_time_steps, stable_time_steps(grid, params, T, config.c_safety))
    nodes = grid.x_nodes.size * grid.sigma_nodes.size
    if nodes * nt > _MAX_NODE_STEPS:
        raise DomainError(
            f"FD level {config.level} needs {nodes} nodes x {nt:.4g} time steps = "
            f"{float(nodes) * nt:.4g} node-steps, more than the limit of "
            f"{_MAX_NODE_STEPS} node-steps"
        )
    return replace(grid, n_time_steps=nt)


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


def _window_indices(grid: FdGrid, config: FdConfig) -> tuple[np.ndarray, np.ndarray]:
    r0 = _sigma_ratio(config)
    lo = config.sigma_center / r0
    hi = config.sigma_center * r0
    x = grid.x_nodes
    s = grid.sigma_nodes
    eps = 1e-9
    ix = np.flatnonzero(
        (x >= config.window_x[0] - eps) & (x <= config.window_x[1] + eps)
    )
    js = np.flatnonzero((s >= lo * (1 - eps)) & (s <= hi * (1 + eps)))
    if ix.size == 0 or js.size == 0:
        raise DomainError("interest window contains no grid nodes")
    return ix, js


def solve(params: SabrParams, T: float, config: FdConfig) -> FdSolution:
    """Time-march the cut-off PDE to T on the level given by the config."""
    grid = _level_grid(params, T, config)
    nt = grid.n_time_steps
    dt = T / nt
    step = _step_matrix(grid, params, dt)
    w = _cell_averaged_payoff(grid.x_nodes, grid.dx)[:, np.newaxis] * np.ones(
        (1, grid.sigma_nodes.size)
    )
    flat = w.reshape(-1)
    interior = w[1:-1, 1:-1]
    # fixed, since no edge value can exceed it: c_rel(y) <= e^y <= e^x_max,
    # which is below 1e3 or else below 1.01 (e^x_max - 1) <= 1.01 max payoff
    bound = max(1.01 * float(w.max()), 1e3)
    ex, es = _edge_nodes(grid)
    edge = np.ravel_multi_index((ex, es), w.shape)
    x_edge, s_edge = grid.x_nodes[ex], grid.sigma_nodes[es]
    for k0 in range(0, nt, _EDGE_BLOCK):
        ks = np.arange(k0 + 1, min(k0 + _EDGE_BLOCK, nt) + 1)
        edge_block = c_rel(x_edge, s_edge, (ks * dt)[:, np.newaxis])
        for k, edge_values in zip(ks, edge_block):
            t_next = k * dt
            interior[...] = (step @ flat).reshape(interior.shape)
            flat[edge] = edge_values
            # NaN and inf fail the comparison too
            if not float(np.abs(w).max()) <= bound:
                raise _instability(w, grid, t_next)
    ix, js = _window_indices(grid, config)
    return FdSolution(
        grid=grid,
        values=w,
        params=params,
        time=T,
        window_x_idx=ix,
        window_s_idx=js,
    )


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


def solve_sequence(
    params: SabrParams, T: float, config: FdConfig, max_level: int | None = None
) -> list[FdSolution]:
    """Refinement sequence w_0 .. w_max_level with Richardson error
    estimates est_error = ||w_k - w_{k-1}||_2 / 3 on the interest window."""
    top = config.level if max_level is None else max_level
    if top < 0:
        raise DomainError(f"max_level must be nonnegative, got {top}")
    # the finest level is the longest march: fail before solving the others
    _level_grid(params, T, replace(config, level=top))
    solutions: list[FdSolution] = []
    for level in range(top + 1):
        sol = solve(params, T, replace(config, level=level))
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
        l1=float(np.mean(np.abs(delta))),
        l2=float(np.sqrt(np.mean(delta**2))),
        linf=float(np.abs(delta).max()),
        log_l2=float(np.sqrt(np.nanmean(log_delta**2))) if pos.any() else float("nan"),
    )


def cutoff_sensitivity(params: SabrParams, T: float, config: FdConfig) -> float:
    """Change of the windowed solution when the cut-off rectangle grows by
    one mesh layer on every side (empirical cut-off error estimate)."""
    base = solve(params, T, config)
    big = solve(params, T, _cutoff_config(config))
    delta = big.restriction - base.restriction
    return float(np.sqrt(np.mean(delta**2)))


def _cutoff_config(config: FdConfig) -> FdConfig:
    # the rectangle grown by one level-0 mesh layer on every side
    dx = 2.0 * config.x_max / (config.nx0 - 1)
    return replace(
        config,
        x_max=config.x_max + dx,
        sigma_max=config.sigma_max * _sigma_ratio(config),
        nx0=config.nx0 + 2,
        nsigma0=config.nsigma0 + 2,
    )


@dataclass(frozen=True)
class ResidualRegion:
    t_range: tuple[float, float] = (0.1, 1.0)
    sigma_range: tuple[float, float] = (0.1, 0.3)
    y_range: tuple[float, float] = (-0.5, 0.5)
    n_t: int = 10
    n_sigma: int = 9
    n_y: int = 11

    def lattice(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.linspace(*self.t_range, self.n_t),
            np.linspace(*self.sigma_range, self.n_sigma),
            np.linspace(*self.y_range, self.n_y),
        )


REL_STEP = 1e-3


def residual_norm(
    price_fn: PriceFn, params: SabrParams, region: ResidualRegion
) -> float:
    """PDE residual norm of dC/dt - LC over the lattice: the root mean
    square over expiry slices of the per-slice l2 norm, with all
    derivatives by central differences with relative step 1e-3.

    price_fn is called 11 times, once per stencil point, each time on the
    whole (t, sigma, y) mesh."""
    if region.t_range[0] < 0.1:
        raise DomainError("residual lattice requires T >= 0.1")
    nu, rho = params.nu, params.rho
    t, s, y = np.meshgrid(*region.lattice(), indexing="ij")
    ht = REL_STEP * t
    hs = REL_STEP * s
    hy = REL_STEP * np.maximum(1.0, np.abs(y))
    s2 = s * s
    c_t = (price_fn(y, s, t + ht) - price_fn(y, s, t - ht)) / (2 * ht)
    c0 = price_fn(y, s, t)
    cyp = price_fn(y + hy, s, t)
    cym = price_fn(y - hy, s, t)
    csp = price_fn(y, s + hs, t)
    csm = price_fn(y, s - hs, t)
    c_y = (cyp - cym) / (2 * hy)
    c_yy = (cyp - 2 * c0 + cym) / hy**2
    c_ss = (csp - 2 * c0 + csm) / hs**2
    c_ys = (
        price_fn(y + hy, s + hs, t)
        - price_fn(y + hy, s - hs, t)
        - price_fn(y - hy, s + hs, t)
        + price_fn(y - hy, s - hs, t)
    ) / (4 * hy * hs)
    lc = s2 * (0.5 * (c_yy - c_y) + nu * rho * c_ys + 0.5 * nu * nu * c_ss)
    res = c_t - lc
    return math.sqrt(float(np.sum(res * res)) / t.shape[0])
