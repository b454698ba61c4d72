import numpy as np
import pytest

from bidisk.errors import DegenerateInputError
from bidisk.expr import parse_polynomial as P
from bidisk.operators import reflect
from bidisk.poly import Poly1
from bidisk.zeroset import resultant_z2, resultant_z2_detail
from conftest import random_poly


def test_hand_sylvester_value():
    p = P("2 - z1 - z2")
    q = P("2*z1*z2 - z1 - z2")
    r = resultant_z2(p, q)
    np.testing.assert_allclose(r.coeffs, [2.0, -4.0, 2.0], atol=1e-10)


def test_proportional_inputs_give_zero():
    r = resultant_z2(P("1 - z1*z2"), P("z1*z2 - 1"))
    assert r.is_zero


def test_linear_case_evaluates_at_root():
    # Res_z2(p, q) = lc(p)^deg(q) * prod q(roots of p): here q(0) = -z1
    r = resultant_z2(P("z2"), P("z2 - z1"))
    np.testing.assert_allclose(r.coeffs, [0.0, -1.0], atol=1e-10)


def test_z2_free_inputs_rejected():
    with pytest.raises(DegenerateInputError):
        resultant_z2(P("1 - z1"), P("z2"))
    with pytest.raises(DegenerateInputError):
        resultant_z2(P("z2"), P("3"))


def test_swap_symmetry_sign():
    # Res(q,p) = (-1)^(deg p * deg q) Res(p,q)
    p = P("1 + z1 + z2 + z2^2")
    q = P("2 - z1*z2")
    a = resultant_z2(p, q)
    b = resultant_z2(q, p)
    np.testing.assert_allclose(a.coeffs, b.coeffs * (-1) ** (2 * 1), atol=1e-10)


def test_matches_direct_sylvester_at_samples(rng):
    # independent check: build the Sylvester matrix of the z2-slices at a
    # point and take the determinant directly
    for _ in range(15):
        p = random_poly(rng, max_deg=4)
        q = random_poly(rng, max_deg=4)
        if p.bidegree[1] == 0 or q.bidegree[1] == 0:
            continue
        r = resultant_z2_detail(p, q)
        z1 = 0.7 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        n2p = p.bidegree[1]
        n2q = q.bidegree[1]
        pc = np.array([Poly1(p.coeffs[:, l]).evaluate(z1) if p.coeffs.shape[1] > l else 0 for l in range(n2p + 1)])
        qc = np.array([Poly1(q.coeffs[:, l]).evaluate(z1) if q.coeffs.shape[1] > l else 0 for l in range(n2q + 1)])
        size = n2p + n2q
        syl = np.zeros((size, size), dtype=complex)
        for i in range(n2q):
            syl[i, i : i + n2p + 1] = pc[::-1]
        for i in range(n2p):
            syl[n2q + i, i : i + n2q + 1] = qc[::-1]
        want = np.linalg.det(syl)
        got = Poly1(np.array(r.coeffs)).evaluate(z1)
        scale = max(1.0, abs(want))
        assert abs(got - want) <= 1e-8 * scale


def test_multiplicative_in_first_argument(rng):
    # Res(p1*p2, q) = Res(p1,q) * Res(p2,q), checked at sample points
    p1 = P("1 - z1*z2")
    p2 = P("2 - z2 + z1")
    q = P("1 + z1 + z2^2")
    lhs = resultant_z2(p1 * p2, q)
    r1 = resultant_z2(p1, q)
    r2 = resultant_z2(p2, q)
    for z1 in (0.3, -0.6 + 0.2j, 1.1j):
        a = Poly1(lhs.coeffs).evaluate(z1)
        b = Poly1(r1.coeffs).evaluate(z1) * Poly1(r2.coeffs).evaluate(z1)
        assert a == pytest.approx(b, rel=1e-7, abs=1e-8)


def test_common_factor_means_zero(rng):
    common = P("1 - z1*z2")
    p = common * P("1 + z2")
    q = common * P("3 - z2^2 + z1")
    r = resultant_z2(p, q)
    assert r.is_zero


def test_detail_is_zero_on_a_shared_factor_only():
    # (1 - z1 z2)(3 - z1 - z2)^3 and its reflection share 1 - z1 z2, though
    # the largest interpolated coefficient is 1.6e-6 ||p||^2, far above
    # rounding; 2 - z1 - z2 and its reflection share nothing, at any scale
    shared = P("(1 - z1*z2)*(3 - z1 - z2)^3")
    assert resultant_z2_detail(shared, reflect(shared)).is_zero
    for scale in (1e-6, 1.0, 1e6):
        p = P("2 - z1 - z2") * scale
        d = resultant_z2_detail(p, reflect(p))
        assert not d.is_zero
        np.testing.assert_allclose(d.coeffs, np.array([2.0, -4.0, 2.0]) * scale**2, rtol=1e-12, atol=0)


# The zero test is fixed: neither function takes a threshold as a keyword.
@pytest.mark.parametrize("fn", [resultant_z2, resultant_z2_detail])
def test_resultant_rejects_threshold_keyword(fn):
    with pytest.raises(TypeError, match="zero_rel_eps"):
        fn(P("2 - z1 - z2"), P("2*z1*z2 - z1 - z2"), zero_rel_eps=1.0)


def test_budget_refusal_reads_the_same_for_every_caller(monkeypatch):
    # a budget of 0 bytes refuses the three 2 x 2 Sylvester matrices of
    # 2 - z1 - z2 and its reflection, in one message from resultant_z2_detail
    from bidisk.errors import InconclusiveError
    from bidisk.zeroset import torus_zeros

    monkeypatch.setattr("bidisk.zeroset.STACK_BYTES", 0)
    p = P("2 - z1 - z2")
    messages = set()
    for call in (
        lambda: resultant_z2(p, reflect(p)),
        lambda: resultant_z2_detail(p, reflect(p)),
        lambda: torus_zeros(p),
    ):
        with pytest.raises(InconclusiveError) as info:
            call()
        messages.add(str(info.value))
    (message,) = messages
    assert "3 Sylvester matrices of size 2" in message and "above the 0 GiB budget" in message


def test_resultant_refuses_a_stack_over_budget():
    # 131073 Sylvester matrices of size 512: 512 GiB
    from bidisk.errors import InconclusiveError

    p = P("z1^256*z2^256 + 2")
    with pytest.raises(InconclusiveError, match="budget"):
        resultant_z2_detail(p, P("2*z1^256*z2^256 + 1"))


def test_resultant_overflow_is_a_numerical_failure():
    # the Sylvester determinants of (3 - z1 - z2)^20 and its reflection
    # overflow; no warning escapes and no NaN reaches the interpolation
    import warnings

    from bidisk.errors import NumericalError

    p = P("(3 - z1 - z2)^20")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="overflows"):
            resultant_z2_detail(p, reflect(p))


def test_resultant_underflow_is_a_numerical_failure():
    # 2^-20 (z1^40 z2^40 + 1.2) shares no factor with its reflection, but
    # its 3201 Sylvester determinants of size 80 all underflow to 0: a zero
    # resultant would otherwise reach the circle roots as a degenerate input
    import warnings

    from bidisk.errors import NumericalError
    from bidisk.zeroset import torus_zeros

    p = P("z1^40*z2^40 + 1.2") * 2.0**-20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="underflows"):
            torus_zeros(p)
