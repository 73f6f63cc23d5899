import pytest
from hypothesis import given, settings, strategies as st

from semipell.enumeration import enumerate_oc
from semipell.recurrence import sp
from semipell.series import (
    Series,
    functional_equation_residual,
    geometric_inverse,
    qm_peak_terms,
    qm_series,
)


def test_construction_and_padding():
    s = Series([1, 2], 4)
    assert s.coeffs == [1, 2, 0, 0, 0]
    assert s.order == 4
    assert Series.zero(3).coeffs == [0, 0, 0, 0]
    assert Series.one(2).coeffs == [1, 0, 0]
    assert Series.monomial(2, 3, coefficient=5).coeffs == [0, 0, 5, 0]
    assert Series.monomial(9, 3).is_zero
    with pytest.raises(ValueError):
        Series([1, 2, 3], 1)
    with pytest.raises(ValueError):
        Series([1.5, 2], 3)
    with pytest.raises(ValueError):
        Series([], None)


def test_arithmetic():
    one_minus_x = Series([1, -1], 2)
    one_plus_x = Series([1, 1], 2)
    assert (one_minus_x * one_plus_x).coeffs == [1, 0, -1]
    assert (one_plus_x + one_minus_x).coeffs == [2, 0, 0]
    assert (one_plus_x - one_plus_x).is_zero
    assert (3 * one_plus_x).coeffs == [3, 3, 0]
    assert (one_plus_x * 3).coeffs == [3, 3, 0]
    # truncation: (1+x)^2 at order 1 loses the x^2 term
    sq = Series([1, 1], 1) * Series([1, 1], 1)
    assert sq.coeffs == [1, 2]
    with pytest.raises(ValueError):
        Series([1], 2) + Series([1], 3)
    with pytest.raises(ValueError):
        Series([1], 2) * Series([1], 3)


def test_substitute_power():
    s = Series([1, 2, 3], 6)
    assert s.substitute_power(2).coeffs == [1, 0, 2, 0, 3, 0, 0]
    assert s.substitute_power(1).coeffs == s.coeffs
    # source coefficients past the truncation fall away
    assert s.substitute_power(4).coeffs == [1, 0, 0, 0, 2, 0, 0]
    with pytest.raises(ValueError):
        s.substitute_power(0)


def test_geometric_inverse():
    g = geometric_inverse(3, 10)
    assert g.coeffs == [1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0]
    # (1 - x^k) * (1 + x^k + x^2k + ...) == 1
    for k in (1, 2, 5):
        check = (Series.one(20) - Series.monomial(k, 20)) * geometric_inverse(k, 20)
        assert check == Series.one(20)


def test_counting_series_prefix():
    q = qm_series(2, 15)
    assert q.coeffs == [1, 1, 1, 3, 1, 5, 3, 11, 1, 13, 5, 23, 3, 29, 11, 51]
    q3 = qm_series(3, 15)
    assert q3.coeffs == [1, 1, 1, 1, 3, 3, 1, 5, 5, 1, 7, 7, 3, 13, 13, 3]


def test_counting_series_matches_recurrence():
    for m in range(2, 9):
        q = qm_series(m, 128)
        assert q.coeffs == [sp(n, m) for n in range(129)]


def test_peak_terms_bucket_the_runforms():
    # the i-th term counts run forms whose largest base is m^i
    for m in (2, 3, 4, 5):
        terms = qm_peak_terms(m, 40)
        for n in range(1, 41):
            buckets = {}
            for rf in enumerate_oc(n, m):
                peak = max(b for b, _ in rf)
                buckets[peak] = buckets.get(peak, 0) + 1
            for i, term in enumerate(terms):
                assert term[n] == buckets.get(m**i, 0), (m, n, i)


def _residue_block(m, level, order):
    # x^(m^level * 1) + ... + x^(m^level * (m-1))
    out = Series.zero(order)
    base = m**level
    for r in range(1, m):
        if base * r > order:
            break
        out.coeffs[base * r] = 1
    return out


def _dense_peak_terms(m, order):
    # The run-form product with dense Series products, the reference
    # for the structured construction.
    terms = []
    prod = Series.one(order)
    level = 0
    while m**level <= order:
        peak = _residue_block(m, level, order) * geometric_inverse(m ** (level + 1), order)
        terms.append(peak * prod)
        prod = prod * (Series.one(order) + 2 * peak)
        level += 1
    return terms


def _dense_residual(q, m):
    # functional_equation_residual's formula with dense products.
    order = q.order
    one = Series.one(order)
    xm = Series.monomial(m, order)
    s = Series.zero(order)
    for r in range(1, min(m, order + 1)):
        s.coeffs[r] = 1
    return ((one - xm) * q + s) - (one + 2 * s - xm) * q.substitute_power(m)


def test_structured_series_matches_dense_products():
    for m in range(2, 11):
        for order in sorted({0, 1, m - 1, m, m * m, 257, 600}):
            dense = _dense_peak_terms(m, order)
            assert qm_peak_terms(m, order) == dense, (m, order)
            total = Series.one(order)
            for term in dense:
                total = total + term
            assert qm_series(m, order) == total, (m, order)


def test_peak_terms_sum_to_the_series():
    for m in (2, 5):
        total = Series.one(64)
        for term in qm_peak_terms(m, 64):
            total = total + term
        assert total == qm_series(m, 64)


def test_functional_equation_residual_vanishes():
    for m in (2, 3, 5, 8):
        assert functional_equation_residual(m, 200).is_zero
    assert functional_equation_residual(2, 0).is_zero
    assert functional_equation_residual(7, 1).is_zero


def test_residual_catches_a_wrong_series(monkeypatch):
    # sanity: the residual is a real detector, not constantly zero
    import semipell.series as series_mod

    real = series_mod.qm_series

    def broken(m, order):
        q = real(m, order)
        if q.order >= 7:
            q.coeffs[7] += 1
        return q

    monkeypatch.setattr(series_mod, "qm_series", broken)
    for m in (2, 3, 9):
        residual = series_mod.functional_equation_residual(m, 32)
        assert not residual.is_zero
        assert residual == _dense_residual(broken(m, 32), m)


small_series = st.lists(st.integers(-9, 9), min_size=1, max_size=12).map(
    lambda cs: Series(cs, 11)
)


@given(small_series, small_series)
@settings(max_examples=80)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(small_series, small_series, small_series)
@settings(max_examples=80)
def test_ring_identities(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * Series.one(a.order) == a
    assert (a * Series.zero(a.order)).is_zero
