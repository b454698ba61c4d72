"""Polynomial roots on the unit circle via Aberth simultaneous iteration.

All roots are located at once: the Aberth update corrects each estimate by
a Newton step repelled from the other estimates, which keeps clustered and
multiple roots (the typical case for resultants of torus-zero polynomials,
e.g. (z-1)^2) from collapsing onto each other.  Estimates belonging to one
multiple root end up in a tight cluster around it; the cluster is collapsed
to its mean before reporting.

Only roots within ``CIRCLE_TOL`` of the unit circle are returned.  The
tolerances are fixed: a certified torus verdict rests on them.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DegenerateInputError
from .poly import Poly1, _horner1, coeff_norm

__all__ = ["aberth_roots", "roots_on_unit_circle"]

# a circle root lies within CIRCLE_TOL of the circle, has a residual below
# CIRCLE_RESID_TOL times the coefficient norm, and merges with the roots
# within CLUSTER_TOL of it; Aberth runs at most MAX_ITER sweeps
CIRCLE_TOL = 1e-6
CIRCLE_RESID_TOL = 1e-10
CLUSTER_TOL = 1e-5
MAX_ITER = 200

_STOP_EPS = 1e-13
_STEP_EPS = 1e-14


def _residual_bound(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k |c_k| |z|^k, the scale against which |p(z)| counts as zero."""
    return _horner1(np.abs(c).astype(np.complex128), np.abs(z).astype(np.complex128)).real


def _far_newton(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The Newton correction p(z) / p'(z) at estimates where p or p' overflows.

    With w = 1/z and the reversed polynomial q(w) = w^n p(1/w),
    p(z) / p'(z) = z q(w) / (n q(w) - w q'(w)), whose terms stay in range
    for |z| > 1.  Without it one estimate that strays far out turns into
    NaN, and through the repulsion terms so does every other estimate.
    """
    n = c.size - 1
    w = 1.0 / z
    rev = c[::-1]
    q = _horner1(rev, w)
    return z * q / (n * q - w * _horner1(rev[1:] * np.arange(1, n + 1), w))


def aberth_roots(r: Poly1) -> np.ndarray:
    """All complex roots of r, multiplicities included.

    Raises ConvergenceError (carrying the last iterates) when some estimate
    still has a residual above the backward-error scale after MAX_ITER
    sweeps.
    """
    if r.is_zero:
        raise DegenerateInputError("root finding needs a nonzero polynomial")
    c = r.coeffs
    # roots at the origin come off directly
    lead_zeros = 0
    while c[lead_zeros] == 0:
        lead_zeros += 1
    c = c[lead_zeros:]
    deg = c.size - 1
    zeros_at_origin = np.zeros(lead_zeros, dtype=np.complex128)
    if deg == 0:
        return zeros_at_origin

    cp = c[1:] * np.arange(1, deg + 1)

    # initial guesses on a slightly perturbed circle around a coefficient
    # balance radius
    r0 = (abs(c[0]) / abs(c[-1])) ** (1.0 / deg)
    r0 = min(max(r0, 0.25), 4.0)
    idx = np.arange(deg)
    theta = 2.0 * np.pi * (idx + 0.5) / deg + 0.39
    radii = r0 * (1.0 + 0.08 * np.sin(2.7 * idx + 1.0))
    z = radii * np.exp(1j * theta)

    # an estimate far out overflows p and p'; _far_newton steps it instead
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_ITER):
            pv = _horner1(c, z)
            bound = _residual_bound(c, z)
            if np.all(np.abs(pv) <= _STOP_EPS * bound):
                break
            dv = _horner1(cp, z)
            dv = np.where(dv == 0, 1e-300, dv)
            newton = pv / dv
            far = ~(np.isfinite(newton) & np.isfinite(dv))
            if np.any(far):
                newton[far] = _far_newton(c, z[far])
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            repel = np.sum(1.0 / diff, axis=1) - 1.0  # remove the diagonal's 1/1
            denom = 1.0 - newton * repel
            denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
            step = newton / denom
            z = z - step
            if np.max(np.abs(step)) <= _STEP_EPS * np.max(1.0 + np.abs(z)):
                break

        pv = _horner1(c, z)
        bound = _residual_bound(c, z)
    # written so that a NaN estimate fails the test too
    bad = ~(np.abs(pv) <= 1e6 * _STOP_EPS * np.maximum(bound, 1e-300))
    if np.any(bad):
        raise ConvergenceError(
            f"{int(bad.sum())} root estimate(s) failed to converge", iterates=z.copy()
        )
    return np.concatenate([zeros_at_origin, z])


def _collapse_clusters(points: np.ndarray, radius: float) -> np.ndarray:
    """Greedy merge of points closer than radius; clusters become their mean."""
    remaining = list(points)
    out = []
    while remaining:
        seed = remaining.pop(0)
        cluster = [seed]
        changed = True
        while changed:
            changed = False
            keep = []
            centre = np.mean(cluster)
            for q in remaining:
                if abs(q - centre) <= radius:
                    cluster.append(q)
                    changed = True
                else:
                    keep.append(q)
            remaining = keep
        out.append(np.mean(cluster))
    return np.asarray(out, dtype=np.complex128)


def _significant(c: np.ndarray) -> np.ndarray:
    """Indices of the coefficients c_k with |c_k| > eps * max|c|."""
    mags = np.abs(c)
    return np.nonzero(mags > np.finfo(np.float64).eps * mags.max())[0]


def roots_on_unit_circle(r: Poly1) -> list[complex]:
    """Distinct roots rho of r with | |rho| - 1 | <= CIRCLE_TOL.

    Each reported root satisfies |r(rho)| <= CIRCLE_RESID_TOL * ||r||_coeff
    after cluster collapsing.  Degree-zero polynomials have no roots.

    Leading and trailing coefficients with |c_k| <= eps * max|c| are
    dropped first: on the circle they move r by far less than resid_tol,
    and the roots they add lie so far out (leading) or so near 0 (trailing)
    that Aberth's iterates overflow or fail to converge.
    """
    if r.is_zero:
        raise DegenerateInputError("root finding needs a nonzero polynomial")
    kept = _significant(r.coeffs)
    core = Poly1(r.coeffs[kept[0] : kept[-1] + 1])
    if core.degree == 0:
        return []
    roots = aberth_roots(core)
    near = roots[np.abs(np.abs(roots) - 1.0) <= CIRCLE_TOL]
    if near.size == 0:
        return []
    merged = _collapse_clusters(near, CLUSTER_TOL)
    scale = coeff_norm(r)
    vals = np.abs(_horner1(r.coeffs, merged))
    good = merged[vals <= CIRCLE_RESID_TOL * scale]
    order = np.argsort(np.angle(good) % (2.0 * np.pi))
    return [complex(v) for v in good[order]]
