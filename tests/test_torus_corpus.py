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

Each case also runs as seven copies under maps that keep the torus zero set
in step with the truth, named after the case: "-rot1", "-rot2" and "-rot3"
take p(z1, z2) to p(i^k z1, i^-k z2), so a point (a, b) to (a i^-k, b i^k);
"-swap" exchanges z1 and z2 and each point's coordinates; "-up20" and
"-down20" scale p by 2^20 and 2^-20; "-prod" multiplies p by 3 - z1 - z2,
which has no zero on the closed bidisk.  All but the product are exact in
floating point, and the product's rounding is far below every case's
margin.

A refusal (InconclusiveError) passes.  A wrong class, a finite point set
with another number of points than the truth or more than POINT_TOL from
it, or a NumericalError is a defect.  The
defects known today are listed in KNOWN_DEFECTS and run as strict xfails,
so a change that mends one, or breaks another, shows up here.
"""

import numpy as np
import pytest

from bidisk import Poly2, parse_polynomial, torus_zeros
from bidisk.errors import InconclusiveError, NumericalError

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


_UNITS = np.array([1, 1j, -1, -1j])
_ZERO_FREE = Poly2([[3, -1], [-1, 0]])


def _copies(name: str, p: Poly2, truth) -> list:
    """The seven copies of a case, each with its truth mapped."""
    c = p.coeffs
    kind, points = truth
    # rotation j multiplies c_kl by i^(j (k - l)), exactly
    power = np.subtract.outer(np.arange(c.shape[0]), np.arange(c.shape[1]))
    copies = [
        (
            f"{name}-rot{j}",
            Poly2(c * _UNITS[j * power % 4]),
            (kind, tuple((a * _UNITS[-j % 4], b * _UNITS[j]) for a, b in points)),
        )
        for j in (1, 2, 3)
    ]
    return copies + [
        (f"{name}-swap", Poly2(c.T), (kind, tuple((b, a) for a, b in points))),
        (f"{name}-up20", Poly2(c * 2.0**20), truth),
        (f"{name}-down20", Poly2(c * 2.0**-20), truth),
        (f"{name}-prod", p * _ZERO_FREE, truth),
    ]


BASES = _drawn_cases() + _fixed_cases()
CASES = BASES + [copy for case in BASES for copy in _copies(*case)]


def _named(copies: str, names: str) -> list:
    """The ids of the given copies ("base" for the case itself) of each case."""
    return [n if c == "base" else f"{n}-{c}" for n in names.split() for c in copies.split()]


# every case and copy torus_zeros gets wrong today, by cause; CHANGES.md has
# one FOUND line per cause.  Measured with numpy 2.4.6 on x86-64; where a
# multiple root is located only roughly, another LAPACK build can round it
# differently, and the strict xfails then name the case.
KNOWN_DEFECTS = frozenset(
    # multiple roots: a k-fold root of the resultant is known to about
    # eps^(1/k), and a torus point where |p| grows like the 2k-th power of
    # the distance is reached to about eps^(1/(2k)), so high-multiplicity
    # tangents lose, move or double their points, and a line rho - z1 in a
    # product is sliced too far from rho to vanish
    _named("base rot1 rot2 rot3 swap up20 prod", "draw196 tangent_powers")
    + _named("swap prod", "draw058")
    + _named(
        "prod",
        "draw018 draw025 draw026 draw041 draw043 draw053 draw072 draw141 draw168 draw178"
        " draw188 draw194 three_tangent_factors",
    )
    # PROPORTIONAL_TOL: p~ within 1e-8 of lambda p reads as a curve of zeros
    + _named(
        "base rot1 rot2 rot3 swap up20 down20",
        "near_curve_k9 near_curve_k10 near_curve_k11 near_curve_k12 curve_just_out",
    )
    # the resultant threshold: a small resultant counts as zero, and a
    # factor shared by p and p~ need not meet the torus
    + _named("base rot1 rot2 rot3 swap down20 prod", "small_cube reflection_pair_times_3_minus_sum")
    + _named("base rot1 rot2 rot3 swap up20 down20", "near_curve_k8")
    + _named("base rot1 rot2 rot3 swap down20", "high_power")
    + _named("prod", "near_curve_k10 near_curve_k11 near_curve_k12 reflection_pair")
    # RESID_TOL: (1 + 10^-k - z1)(3 - z1 - z2) puts the root pair 1 + 10^-k
    # and 1 / (1 + 10^-k) into the resultant, one cluster that meets T, and
    # the slice at 1 is so small that it reads as a line factor
    + _named("prod", "near_line_k8 near_line_k9 near_line_k10 near_line_k11 near_line_k12")
    # the resultant of 2^20 (z1^40 z2^40 + 1.2) overflows (NumericalError)
    + _named("up20", "high_power")
    # the zero test is not homogeneous: ZERO_REL_EPS ||p|| ||p~|| scales as
    # lambda^2 and the resultant as lambda^(2n), so at 2^-20 these resultants
    # read zero, and at 2^20 these, which share a line rho - z2 with p~, do not
    + _named(
        "down20",
        "draw002 draw003 draw004 draw009 draw013 draw016 draw021 draw022 draw045 draw050"
        " draw051 draw078 draw083 draw086 draw092 draw094 draw097 draw106 draw110 draw113"
        " draw114 draw119 draw130 draw137 draw139 draw141 draw142 draw147 draw148 draw154"
        " draw156 draw158 draw159 draw161 draw164 draw169 draw171 draw176 draw179 draw181"
        " draw184 draw185 draw187 draw191 draw193 draw194 draw196 tangent_powers"
        " three_tangent_factors two_levels",
    )
    + _named(
        "up20",
        "draw012 draw018 draw025 draw028 draw035 draw040 draw043 draw049 draw053 draw058"
        " draw068 draw087 draw099 draw112 draw122 draw123 draw153 draw168 draw173 draw178"
        " draw189",
    )
)


def _same_points(got, want) -> bool:
    """Whether the sets have as many points, each within POINT_TOL of one of
    the other's."""

    def near(z, w):
        return max(abs(z[0] - w[0]), abs(z[1] - w[1])) <= POINT_TOL

    return len(got) == len(want) and all(any(near(z, w) for w in want) for z in got) and all(
        any(near(z, w) for z in got) for w in want
    )


def _defect(p: Poly2, truth) -> str | None:
    """What torus_zeros gets wrong on p, or None when it is right or refuses."""
    try:
        got = torus_zeros(p)
    except InconclusiveError:
        return None
    except NumericalError as exc:
        return f"NumericalError: {exc}"
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
