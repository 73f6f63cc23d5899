import pytest
from hypothesis import given, settings, strategies as st

import semipell.series as series_mod
from semipell.core import SearchBoundExceeded
from semipell.enumeration import enumerate_oc
from semipell.recurrence import sp
from semipell.series import ORDER_LIMIT, _divide_geometric, functional_equation_residual, qm_series

# Dense list arithmetic: the slow reference the structured construction
# is compared against.  A series is a list c[0..order]; products truncate.


def _one(order):
    return [1] + [0] * order


def _add(a, b):
    return [x + y for x, y in zip(a, b, strict=True)]


def _sub(a, b):
    return [x - y for x, y in zip(a, b, strict=True)]


def _scale(c, a):
    return [c * x for x in a]


def _mul(a, b):
    # the dense product, O(order^2)
    if len(a) != len(b):
        raise ValueError(f"order mismatch: {len(a) - 1} vs {len(b) - 1}")
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: len(a) - i]):
                if y:
                    out[i + j] += x * y
    return out


def _geometric_inverse(k, order):
    # 1 / (1 - x^k) truncated: ones at every multiple of k
    return [int(e % k == 0) for e in range(order + 1)]


def _residue_block(m, level, order):
    # x^(m^level * 1) + ... + x^(m^level * (m-1))
    base = m**level
    return [int(e % base == 0 and 0 < e // base < m) for e in range(order + 1)]


def test_geometric_inverse():
    assert _geometric_inverse(3, 10) == [1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0]
    # (1 - x^k) * (1 + x^k + x^2k + ...) == 1
    for k in (1, 2, 5):
        one_minus = _sub(_one(20), [int(e == k) for e in range(21)])
        assert _mul(one_minus, _geometric_inverse(k, 20)) == _one(20)
        # the library's running sum divides by (1 - x^k) the same way
        g = _one(20)
        _divide_geometric(g, k)
        assert g == _geometric_inverse(k, 20)


def test_counting_series_prefix():
    q = qm_series(2, 15)
    assert q == [1, 1, 1, 3, 1, 5, 3, 11, 1, 13, 5, 23, 3, 29, 11, 51]
    q3 = qm_series(3, 15)
    assert q3 == [1, 1, 1, 1, 3, 3, 1, 5, 5, 1, 7, 7, 3, 13, 13, 3]


def test_counting_series_matches_recurrence():
    for m in range(2, 9):
        q = qm_series(m, 128)
        assert q == [sp(n, m) for n in range(129)]


def test_bad_order_and_modulus():
    for fn in (qm_series, functional_equation_residual):
        for order in (-1, 2.5, "8"):
            with pytest.raises(ValueError, match="order must be a nonnegative integer"):
                fn(2, order)
        with pytest.raises(ValueError, match="modulus"):
            fn(1, 8)


def test_series_order_limit(monkeypatch):
    def refuse(coeffs, m, base):
        raise AssertionError("a peak factor was multiplied before the bound check")

    monkeypatch.setattr(series_mod, "_times_peak", refuse)
    with pytest.raises(SearchBoundExceeded, match="series order refuses"):
        qm_series(2, ORDER_LIMIT + 1)
    # the patch reaches the series: an order within the bound runs into it
    with pytest.raises(AssertionError, match="before the bound check"):
        qm_series(2, 1)


def test_peak_terms_bucket_the_runforms():
    # the i-th term counts run forms whose largest base is m^i
    for m in (2, 3, 4, 5):
        terms, _ = _dense_peak_terms(m, 40)
        for n in range(1, 41):
            buckets = {}
            for rf in enumerate_oc(n, m):
                peak = max(b for b, _ in rf)
                buckets[peak] = buckets.get(peak, 0) + 1
            for i, term in enumerate(terms):
                assert term[n] == buckets.get(m**i, 0), (m, n, i)


def _dense_peak_terms(m, order):
    # The run-form product with dense list products, the reference for
    # the structured construction: the paper's term for each peak base,
    # and the whole product prod_t (1 + 2 P_t).
    terms = []
    prod = _one(order)
    level = 0
    while m**level <= order:
        peak = _mul(_residue_block(m, level, order), _geometric_inverse(m ** (level + 1), order))
        terms.append(_mul(peak, prod))
        prod = _mul(prod, _add(_one(order), _scale(2, peak)))
        level += 1
    return terms, prod


def _dense_residual(q, m):
    # functional_equation_residual's formula with dense products.
    order = len(q) - 1
    one = _one(order)
    xm = [int(e == m) for e in range(order + 1)]
    s = [int(0 < e < m) for e in range(order + 1)]
    q_sub = [q[e // m] if e % m == 0 else 0 for e in range(order + 1)]  # Q(x^m)
    lhs = _add(_mul(_sub(one, xm), q), s)
    rhs = _mul(_sub(_add(one, _scale(2, s)), xm), q_sub)
    return _sub(lhs, rhs)


def test_structured_series_matches_dense_products():
    # qm_series builds (1 + prod_t (1 + 2 P_t)) / 2; the paper's sum over
    # peak bases and the dense product must both give the same series
    for m in range(2, 11):
        for order in sorted({0, 1, m - 1, m, m * m, 257, 600}):
            terms, prod = _dense_peak_terms(m, order)
            total = _one(order)
            for term in terms:
                total = _add(total, term)
            halved = [(1 + c) // 2 for c in prod]
            assert qm_series(m, order) == total == halved, (m, order)


def test_functional_equation_residual_vanishes():
    for m in (2, 3, 5, 8):
        assert functional_equation_residual(m, 200) == [0] * 201
    assert functional_equation_residual(2, 0) == [0]
    assert functional_equation_residual(7, 1) == [0, 0]


def test_residual_catches_a_wrong_series(monkeypatch):
    # sanity: the residual is a real detector, not constantly zero
    real = series_mod.qm_series

    def broken(m, order):
        q = real(m, order)
        if len(q) > 7:
            q[7] += 1
        return q

    monkeypatch.setattr(series_mod, "qm_series", broken)
    for m in (2, 3, 9):
        residual = series_mod.functional_equation_residual(m, 32)
        assert any(residual)
        assert residual == _dense_residual(broken(m, 32), m)


small_series = st.lists(st.integers(-9, 9), min_size=1, max_size=12).map(
    lambda cs: cs + [0] * (12 - len(cs))
)


@given(small_series, small_series)
@settings(max_examples=80)
def test_multiplication_commutes(a, b):
    assert _mul(a, b) == _mul(b, a)


@given(small_series, small_series, small_series)
@settings(max_examples=80)
def test_ring_identities(a, b, c):
    assert _mul(_mul(a, b), c) == _mul(a, _mul(b, c))
    assert _mul(a, _add(b, c)) == _add(_mul(a, b), _mul(a, c))
    assert _mul(a, _one(11)) == a
    assert not any(_mul(a, [0] * 12))
