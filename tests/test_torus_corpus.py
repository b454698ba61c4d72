"""Torus classes against answers known by construction.

Each draw is a product of one to three factors a - b zeta z1 - c eta z2 with
small integers a, b, c and zeta, eta powers of i.  The torus zero set of
such a factor is known exactly: |b zeta z1 + c eta z2| <= |b| + |c| on the
torus, with equality only where both terms point the same way.  So a factor
with a > |b| + |c| has no torus zero; with a = |b| + |c| and b, c nonzero
it touches the torus at the one point (conj(b zeta)/|b|, conj(c eta)/|c|);
and with a = |b| + |c| and one of b, c zero it vanishes on a line.  The zero
set of the product is the union of its factors'.  The fixed inputs have
known classes as well.

A refusal (InconclusiveError) passes.  A wrong class, or a finite point set
more than POINT_TOL from the truth, is a defect.  The defects known today
are listed in KNOWN_DEFECTS and run as strict xfails, so a change that mends
one, or breaks another, shows up here.
"""

import numpy as np
import pytest

from bidisk import Poly2, parse_polynomial, torus_zeros
from bidisk.errors import InconclusiveError

POINT_TOL = 1e-6

EMPTY = ("empty", ())
INFINITE = ("infinite", ())


def _drawn_cases() -> list:
    rng = np.random.default_rng(5)
    cases = []
    for i in range(200):
        p, infinite, points = Poly2.const(1.0), False, set()
        for _ in range(rng.integers(1, 4)):
            b, c = (int(v) for v in rng.integers(-2, 3, size=2))
            a = (abs(b) + abs(c) + int(rng.integers(0, 2))) or 1
            zeta, eta = 1j ** rng.integers(0, 4, size=2)
            p = p * Poly2([[a, -c * eta], [-b * zeta, 0]])
            if a == abs(b) + abs(c):
                if b and c:
                    points.add((np.conj(b * zeta) / abs(b), np.conj(c * eta) / abs(c)))
                else:
                    infinite = True
        truth = INFINITE if infinite else ("finite", tuple(points)) if points else EMPTY
        cases.append((f"draw{i:03d}", p, truth))
    return cases


def _fixed_cases() -> list:
    one = ("finite", ((1.0, 1.0),))
    cases = []
    for k in range(3, 13):
        eps = f"1e-{k}"
        cases += [
            (f"near_line_k{k}", f"1 + {eps} - z1", EMPTY),
            (f"near_point_k{k}", f"2 + {eps} - z1 - z2", EMPTY),
            (f"near_curve_k{k}", f"1 + {eps} - z1*z2", EMPTY),
        ]
    cases += [
        ("two_levels", "(2 - z1 - z2)*(3 - z1 - z2)", one),
        ("small_cube", "1e-6*(3 - z1 - z2)^3", EMPTY),
        ("high_power", "z1^40*z2^40 + 1.2", EMPTY),
        ("root_just_out", "1.0000005 - z1", EMPTY),
        ("root_just_in", "0.9999995 - z1", EMPTY),
        ("point_just_out", "2.000000000001 - z1 - z2", EMPTY),
        ("curve_just_out", "1.000000001 - z1*z2", EMPTY),
        ("root_just_out_times_3_minus_z2", "(1.0000005 - z1)*(3 - z2)", EMPTY),
        ("reflection_pair", "(z1*z2 - 2)*(1 - 2*z1*z2)", EMPTY),
        ("reflection_pair_times_3_minus_sum", "(z1*z2 - 2)*(1 - 2*z1*z2)*(3 - z1 - z2)", EMPTY),
        ("tangent_powers", "(2 - z1 - z2)^4*(3 - z1 - z2)^2", one),
        ("three_tangent_factors", "(2 - z1 - z2)*(2 - z1*z2 - z2)*(3 + z1^3 - z2^2)", one),
    ]
    return [(name, parse_polynomial(text), truth) for name, text, truth in cases]


CASES = _drawn_cases() + _fixed_cases()

# every case torus_zeros gets wrong today, by cause; CHANGES.md has one
# FOUND line per cause
KNOWN_DEFECTS = frozenset(
    # the circle window: a root within CIRCLE_TOL of the circle counts as on it
    [f"near_line_k{k}" for k in range(6, 13)] + ["root_just_out", "root_just_in"]
    # the circle window again: a line factor rho - z1 times others puts a
    # multiple root at rho into the resultant, rounding splits it beyond
    # CIRCLE_TOL, and the line is missed
    + ["draw000", "draw026", "draw041", "draw065", "draw170", "draw188"]
    # tangential products: each tangent point is a multiple root of the
    # resultant, split beyond CIRCLE_TOL, and the point is missed
    + ["draw009", "draw022", "draw078", "draw086", "draw114", "draw141", "draw169"]
    + ["draw171", "draw184", "draw194", "draw196", "tangent_powers", "three_tangent_factors"]
    # PROPORTIONAL_TOL: p~ within 1e-8 of lambda p reads as a curve of zeros
    + [f"near_curve_k{k}" for k in range(9, 13)] + ["curve_just_out"]
    # the resultant threshold: a small resultant counts as zero, and a
    # factor shared by p and p~ need not meet the torus
    + ["near_curve_k8", "small_cube", "high_power", "reflection_pair_times_3_minus_sum"]
)


def _same_points(got, want) -> bool:
    """Whether every point of each set lies within POINT_TOL of the other's."""

    def near(z, w):
        return max(abs(z[0] - w[0]), abs(z[1] - w[1])) <= POINT_TOL

    return all(any(near(z, w) for w in want) for z in got) and all(
        any(near(z, w) for z in got) for w in want
    )


def _defect(p: Poly2, truth) -> str | None:
    """What torus_zeros gets wrong on p, or None when it is right or refuses."""
    try:
        got = torus_zeros(p)
    except InconclusiveError:
        return None
    kind, points = truth
    if got.kind != kind:
        return f"{got.kind} ({got.witness}) where the truth is {kind}"
    if kind == "finite" and not _same_points(got.points, points):
        return f"points {got.points} where the truth is {points}"
    return None


def test_known_defects_name_cases():
    assert KNOWN_DEFECTS <= {name for name, _, _ in CASES}


@pytest.mark.parametrize(
    "p, truth",
    [
        pytest.param(
            p, truth, id=name,
            marks=[pytest.mark.xfail(strict=True)] if name in KNOWN_DEFECTS else [],
        )
        for name, p, truth in CASES
    ],
)
def test_torus_class_matches_construction(p, truth):
    assert _defect(p, truth) is None
