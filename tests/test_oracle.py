"""Tests for the independent big-integer oracle."""

import pytest

from binomdiv.errors import IntegrityError, ResourceLimitError
from binomdiv.oracle import (
    ORACLE_LIMIT,
    _exact_quotient,
    big_binomial,
    exact_s,
    exact_t,
)
from references import exact_conjecture_ratio, kummer_binomial_valuation, nu_factorial


def test_big_binomial_examples():
    assert big_binomial(4, 2) == 6
    assert big_binomial(17, 0) == 1
    assert big_binomial(15, 5) == 3003
    assert big_binomial(0, 0) == 1


def test_big_binomial_guards():
    with pytest.raises(ValueError):
        big_binomial(4, 5)
    with pytest.raises(ValueError):
        big_binomial(4, -1)
    with pytest.raises(ResourceLimitError):
        big_binomial(ORACLE_LIMIT + 1, 1)


def pascal_rows(m_max):
    row = [1]
    yield row
    for m in range(1, m_max + 1):
        row = [1] + [row[i] + row[i + 1] for i in range(m - 1)] + [1]
        yield row


def test_binomial_symmetry_and_pascal_identity():
    rows = list(pascal_rows(200))
    for m in range(201):
        row = rows[m]
        assert row == row[::-1]  # symmetry C(m,k) = C(m,m-k)
        if m:
            prev = rows[m - 1]
            for k in range(1, m):
                assert row[k] == prev[k - 1] + prev[k]  # Pascal
    # the addition-built triangle equals the oracle's binomials
    for m in range(0, 201, 17):
        for k in (0, m // 3, m // 2, m):
            assert rows[m][k] == big_binomial(m, k)


def test_valuation_cross_check_on_binomials():
    """Repeated division of C(m,k) agrees with Legendre and Kummer, m <= 500."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    tables = {p: [nu_factorial(m, p) for m in range(501)] for p in primes}
    row = [1]
    for m in range(1, 501):
        row = [1] + [row[i] + row[i + 1] for i in range(m - 1)] + [1]
        for k in range(m + 1):
            value = row[k]
            for p in primes:
                direct = 0
                v = value
                while v % p == 0:
                    v //= p
                    direct += 1
                legendre = tables[p][m] - tables[p][k] - tables[p][m - k]
                if direct != legendre:
                    raise AssertionError(f"legendre mismatch at C({m},{k}), p={p}")
                if direct != kummer_binomial_valuation(m, k, p):
                    raise AssertionError(f"kummer mismatch at C({m},{k}), p={p}")


def test_exact_ratio_values():
    assert exact_conjecture_ratio(2, 1, 1) == 6  # 24 // 4
    assert exact_conjecture_ratio(3, 1, 1) == 30
    assert exact_s(1) == 5  # 20*3 // 12
    assert exact_t(1) == 91  # 3003 // 33


def test_exact_quotient_surfaces_inexactness_as_integrity_error():
    assert _exact_quotient(30, 5, "ok") == 6
    with pytest.raises(IntegrityError):
        _exact_quotient(7, 2, "broken")
