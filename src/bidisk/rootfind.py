"""Polynomial roots on the unit circle from companion-matrix eigenvalues.

``np.roots`` takes the eigenvalues of the companion matrix, which are the
exact roots of a polynomial whose coefficients differ from the given ones
by a small multiple of eps times their norm (Edelman and Murakami 1995).
A multiple root, the typical case for resultants of torus-zero
polynomials, e.g. (z-1)^2, comes back as a tight cluster around it; the
cluster is collapsed to its mean before reporting.

Only roots within ``CIRCLE_TOL`` of the unit circle are returned.  The
tolerances are fixed: a certified torus verdict rests on them.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError
from .poly import Poly1, _horner1, coeff_norm

__all__ = ["roots_on_unit_circle"]

# a circle root lies within CIRCLE_TOL of the circle, has a residual below
# CIRCLE_RESID_TOL times the coefficient norm, and merges with the roots
# within CLUSTER_TOL of it
CIRCLE_TOL = 1e-6
CIRCLE_RESID_TOL = 1e-10
CLUSTER_TOL = 1e-5


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
    and the roots they add lie far from it: far out (leading) or near 0
    (trailing).
    """
    if r.is_zero:
        raise DegenerateInputError("root finding needs a nonzero polynomial")
    kept = _significant(r.coeffs)
    core = r.coeffs[kept[0] : kept[-1] + 1]
    if core.size == 1:
        return []
    roots = np.roots(core[::-1])
    near = roots[np.abs(np.abs(roots) - 1.0) <= CIRCLE_TOL]
    if near.size == 0:
        return []
    merged = _collapse_clusters(near, CLUSTER_TOL)
    scale = coeff_norm(r)
    vals = np.abs(_horner1(r.coeffs, merged))
    good = merged[vals <= CIRCLE_RESID_TOL * scale]
    order = np.argsort(np.angle(good) % (2.0 * np.pi))
    return [complex(v) for v in good[order]]
