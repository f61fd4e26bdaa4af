"""Independent brute-force ground truth over arbitrary-precision integers.

Deliberately naive and deliberately separate: nothing here touches the
valuation machinery it is used to validate.  Binomials are the standard
library's ``math.comb``, guarded to desk scale (arguments up to 10^4)
where exact big-integer arithmetic stays cheap.
"""

from __future__ import annotations

import math

from .errors import IntegrityError, ResourceLimitError

#: Largest binomial argument the oracle will touch.
ORACLE_LIMIT = 10_000


def big_binomial(m: int, k: int) -> int:
    """Exact C(m, k) by ``math.comb``, for 0 <= k <= m <= ``ORACLE_LIMIT``."""
    if k < 0 or k > m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    if m > ORACLE_LIMIT:
        raise ResourceLimitError(f"binomial argument {m} exceeds oracle guard {ORACLE_LIMIT}")
    return math.comb(m, k)


def _exact_quotient(numerator: int, denominator: int, what: str) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise IntegrityError(
            f"{what} is not an integer: {numerator} / {denominator} "
            f"leaves remainder {remainder}"
        )
    return quotient


def exact_s(n: int) -> int:
    """S_n = C(6n,3n)C(3n,n) / (2(2n+1)C(2n,n)), literally."""
    numerator = big_binomial(6 * n, 3 * n) * big_binomial(3 * n, n)
    denominator = 2 * (2 * n + 1) * big_binomial(2 * n, n)
    return _exact_quotient(numerator, denominator, f"S_{n}")


def exact_t(n: int) -> int:
    """t_n = C(15n,5n)C(5n-1,n-1) / ((10n+1)C(3n,n)), literally."""
    numerator = big_binomial(15 * n, 5 * n) * big_binomial(5 * n - 1, n - 1)
    denominator = (10 * n + 1) * big_binomial(3 * n, n)
    return _exact_quotient(numerator, denominator, f"t_{n}")


def conjecture_sides(a: int, b: int, n: int) -> tuple[int, int]:
    """D = (2bn+1)(2bn+3)C(2bn,bn) and B = C(2an,an)C(an,bn), literally:
    the theorem says D | 3(a-b)(3a-b) B."""
    divisor = (2 * b * n + 1) * (2 * b * n + 3) * big_binomial(2 * b * n, b * n)
    return divisor, big_binomial(2 * a * n, a * n) * big_binomial(a * n, b * n)


def minimal_multiplier(a: int, b: int, n: int) -> int:
    """Smallest constant M with divisor | M * dividend-binomials, exactly.

    M = D / gcd(D, B) for ``conjecture_sides`` D and B.  The theorem
    guarantees M | 3(a-b)(3a-b); a violation is surfaced as
    ``IntegrityError``.
    """
    if b < 1 or a <= b or n < 1:
        raise ValueError(f"need a > b >= 1 and n >= 1, got a={a}, b={b}, n={n}")
    divisor, dividend = conjecture_sides(a, b, n)
    m_min = divisor // math.gcd(divisor, dividend)
    bound = 3 * (a - b) * (3 * a - b)
    if bound % m_min:
        raise IntegrityError(
            f"minimal multiplier {m_min} does not divide 3(a-b)(3a-b) = {bound} "
            f"at a={a}, b={b}, n={n}; the divisibility theorem would be false"
        )
    return m_min
