"""Reference routes that the tests pin the package to and that no code of
the package calls: Legendre's formula for one factorial and Kummer's carry
count for one binomial, the conjecture's ratio R(a, b, n) in big integers,
certificates built from rows, the one-row table of the reduced verdicts, a
ratio's valuation at one prime, and S_n's and t_n's valuations prime by
prime, with t_n in its offset form, which no claim of the package uses."""

import numpy as np

from binomdiv.oracle import _exact_quotient, big_binomial
from binomdiv.ratio import (
    Certificate, LinearForm, _argument, _check_n, _claim_tables, _instance, _modulus_table, binomial_ratio,
    integral_for_all_n,
)
from binomdiv.theorem import s_integrality_claim
from binomdiv.valuation import nu_int


def nu_factorial(m, p):
    """nu_p(m!) by Legendre's formula, as an iterated-division sum."""
    if p < 2:  # the division loop would never end
        raise ValueError(f"p must be a prime, got {p}")
    if m < 0:
        raise ValueError(f"factorial argument must be >= 0, got {m}")
    total = 0
    q = m // p
    while q:
        total += q
        q //= p
    return total


def kummer_binomial_valuation(m, k, p):
    """nu_p(C(m, k)) as the carry count of adding k and m-k in base p,
    independent of Legendre's formula."""
    if p < 2:  # the carry loop would never end
        raise ValueError(f"p must be a prime, got {p}")
    if k < 0 or k > m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    r, s = k, m - k
    carries = 0
    carry = 0
    while r or s or carry:
        carry = 1 if (r % p) + (s % p) + carry >= p else 0
        carries += carry
        r //= p
        s //= p
    return carries


def exact_conjecture_ratio(a, b, n):
    """R(a,b,n) = C(2an,an)C(an,bn)/C(2bn,bn), literally; ``IntegrityError``
    if the division is inexact, which would falsify the integrality theorem."""
    numerator = big_binomial(2 * a * n, a * n) * big_binomial(a * n, b * n)
    return _exact_quotient(numerator, big_binomial(2 * b * n, b * n), f"R({a},{b},{n})")


def ratio_valuation(r, n, p):
    """nu_p of the ratio at n: sum of exponent * nu_p(argument!).

    May be negative; that is exactly what non-integrality looks like.
    """
    _check_n(n)
    return sum(e * nu_factorial(_argument(form, n), p) for form, e in r.terms)


def certificate_from_rows(n, rows):
    """Certificate over (prime, required, available) rows, ascending by prime."""
    primes, required, available = np.array(list(rows), dtype=np.int64).reshape(-1, 3).T
    failing = primes[available < required]
    witness = int(failing[0]) if failing.size else None
    return Certificate(n, primes, required, available, witness)


def modulus_rows(claim, n):
    """(p, required, available) for each prime p of the moduli values, ascending:
    the exponent of p in their product against nu_p(multipliers) +
    nu_p(``claim.core``), the one-row table of ``claims_hold``.  They decide
    the claim at n when its core is certified; other claims raise ``ValueError``.
    """
    if not integral_for_all_n(claim.core):
        raise ValueError(f"core ratio of {claim} has no Landau certificate")
    _instance(claim, n)
    _, p, required, available = _modulus_table(_claim_tables((claim,)), np.zeros(1, np.intp), [n])
    return zip(p.tolist(), required.tolist(), available.tolist())


def s_binomial_ratio():
    """C(6n,3n)C(3n,n)/C(2n,n), the factorial part of S_n."""
    return s_integrality_claim().core


def t_binomial_ratio():
    """C(15n,5n)C(5n-1,n-1)/C(3n,n) = L(n)/5, t_n's offset form, built apart from the claims."""
    top = binomial_ratio(LinearForm(15, 0), LinearForm(5, 0))
    offsets = binomial_ratio(LinearForm(5, -1), LinearForm(1, -1))
    return top * offsets / binomial_ratio(LinearForm(3, 0), LinearForm(1, 0))


def s_valuation(n, p):
    """nu_p(S_n), computed from valuations alone (may be negative)."""
    return ratio_valuation(s_binomial_ratio(), n, p) - nu_int(2, p) - nu_int(2 * n + 1, p)


def t_valuation(n, p):
    """nu_p(t_n), computed from valuations alone (may be negative)."""
    return ratio_valuation(t_binomial_ratio(), n, p) - nu_int(10 * n + 1, p)


def splitmix64(seed):
    """SplitMix64's outputs from state ``seed``, one by one, in Python integers."""
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        yield z ^ (z >> 31)


def fuzz_samples(seed, max_den, count):
    """The first ``count`` (xn, xd, yn, yd) of the lemma fuzzer: four outputs z
    per sample, each mapped to low + floor(z (max_den + 1 - low) / 2^64)."""
    stream = splitmix64(seed)
    return [tuple(low + (next(stream) * (max_den + 1 - low) >> 64) for low in (-max_den, 1, -max_den, 1))
            for _ in range(count)]
