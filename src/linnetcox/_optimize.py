"""The fits' two searches, in numpy alone, so no fit imports scipy."""

import contextlib

import numpy as np


class _MaxFev(Exception):
    """The evaluation budget is spent: the iteration ends where it stands."""


def nelder_mead(fun, x0, xatol, fatol, maxiter, maxfev):
    """scipy.optimize's Nelder-Mead (no bounds, not adaptive) step for step, so the same
    evaluations give the same bits: ``(x, min f, iterations, success)``."""
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxFev
        nfev += 1
        return fun(x.copy())

    n = x0.size
    sim, fsim = np.tile(x0, (n + 1, 1)), np.full(n + 1, np.inf)
    np.fill_diagonal(sim[1:], np.where(x0 != 0, (1 + 0.05) * x0, 0.00025))
    with contextlib.suppress(_MaxFev):
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    for _ in range(2):  # scipy sorts twice here; argsort is not stable, so ties may swap
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    nit = 1
    while nfev < maxfev and nit < maxiter:
        with contextlib.suppress(_MaxFev):
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = sim[:-1].sum(0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:  # expand
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:  # reflect
                sim[-1], fsim[-1] = xr, fxr
            else:  # contract outside or inside, else shrink towards the best vertex
                out = fxr < fsim[-1]
                xc = 1.5 * xbar - 0.5 * sim[-1] if out else 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                if (fxc <= fxr) if out else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            nit += 1
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    return sim[0], np.min(fsim), nit, nfev < maxfev and nit < maxiter


def box_quasi_newton(fun, x0, bound, max_iter):
    """Minimise ``fun`` (value, gradient) on ``[-bound, bound]^n`` from ``x0`` clipped to it:
    BFGS on the coordinates no bound holds, or steepest descent, with Armijo backtracking along
    the projected path; stops on a projected gradient <= 1e-10, a relative decrease <= 1e-15,
    or after ``max_iter`` iterations."""
    x = np.clip(x0, -bound, bound)
    (f, g), h = fun(x), None  # h: the inverse Hessian, None until a curvature pair
    for _ in range(max_iter):
        if np.max(np.abs(np.clip(x - g, -bound, bound) - x)) <= 1e-10:
            break
        free = ~(((x <= -bound) & (g > 0)) | ((x >= bound) & (g < 0)))
        d = None if h is None else np.where(free, -(h @ np.where(free, g, 0.0)), 0.0)
        if d is None or not g @ d < 0:
            h, d = None, np.where(free, -g, 0.0) / max(1.0, np.max(np.abs(g)))
        for t in 0.5 ** np.arange(60):
            xn = np.clip(x + t * d, -bound, bound)
            fn, gn = fun(xn)
            if fn <= f + 1e-4 * (g @ (xn - x)):
                break
        if fn > f or f - fn <= 1e-15 * max(abs(f), abs(fn), 1.0):
            return xn if fn <= f else x
        x, f, g, s, y = xn, fn, gn, xn - x, gn - g
        sy = s @ y
        if sy > 0:
            v = np.eye(x.size) - np.outer(s, y) / sy
            h = v @ (np.eye(x.size) * sy / (y @ y) if h is None else h) @ v.T + np.outer(s, s) / sy
    return x
