"""Tests for prime generation, valuations and the floor inequality (Lemma 1)."""

import math
import random
import re
import signal
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomdiv import valuation
from binomdiv.errors import IntegrityError, ResourceLimitError
from binomdiv.valuation import (
    FUZZ_MAX_DEN,
    factorize,
    is_prime,
    lemma1_margin,
    lemma_fuzz,
    nu_factorial_over_primes,
    nu_int,
    prime_pi_table,
    primes_upto,
)
from references import fuzz_samples, kummer_binomial_valuation, nu_factorial, splitmix64


def trial_division_primes(limit: int) -> list[int]:
    """Independent oracle: primes by brute-force trial division."""
    out = []
    for m in range(2, limit + 1):
        if all(m % d for d in range(2, math.isqrt(m) + 1)):
            out.append(m)
    return out


rationals = st.builds(
    Fraction,
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)


# ---------------------------------------------------------------------------
# sieve

def test_sieve_small_examples():
    assert primes_upto(1).tolist() == []
    assert primes_upto(0).tolist() == []
    assert primes_upto(2).tolist() == [2]
    assert primes_upto(10).tolist() == [2, 3, 5, 7]
    assert primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_sieve_matches_trial_division_up_to_10k():
    assert primes_upto(10_000).tolist() == trial_division_primes(10_000)


def test_sieve_strictly_increasing_and_prime():
    primes = primes_upto(5000).tolist()
    assert primes == sorted(set(primes))
    assert primes[-1] == 4999


@pytest.mark.parametrize("segment", [1, 2, 3, 7, 64, 97, 1024])
def test_segmented_sieve_segment_boundaries(monkeypatch, segment):
    monkeypatch.setattr(valuation, "_SEGMENT", segment)
    reference = trial_division_primes(3000)
    # every limit for a 64-wide segment; the narrow segments cost O(limit)
    # Python steps per call, so they take the small limits and the top
    limits = range(3001) if segment == 64 else [*range(301), *range(2990, 3001)]
    for limit in limits:
        got = primes_upto(limit).tolist()
        assert got == [p for p in reference if p <= limit], limit
    assert primes_upto(2000).tolist() == trial_division_primes(2000)


def test_sieve_prime_count_at_scale():
    assert primes_upto(10**7).size == 664579


def test_sieve_limit_guard():
    with pytest.raises(ResourceLimitError):
        primes_upto(2**31 + 1)
    with pytest.raises(ValueError, match="limit must be nonnegative, got -1"):
        primes_upto(-1)


def test_primes_upto_cache_slices_consistently():
    big = primes_upto(9000).tolist()
    small = primes_upto(100).tolist()
    assert small == [p for p in big if p <= 100]
    assert not primes_upto(9000).flags.writeable


def test_prime_pi_table_at_every_quotient():
    """The primes <= isqrt(N), the sieve's own, and large[j] = pi(N // j) for
    1 <= j <= isqrt(N): every N // j, against the sieve's count."""
    rng = random.Random(21)
    for limit in [*range(0, 300), 10**6, 10**6 - 1, *rng.sample(range(300, 10**6), 12)]:
        primes, root = primes_upto(limit), math.isqrt(limit)
        head, large = prime_pi_table(limit)
        assert head.dtype == large.dtype == np.int64 and large.size == root + 1
        assert head.tolist() == primes_upto(root).tolist() == primes[: head.size].tolist()
        j = np.arange(1, root + 1)
        assert large[1:].tolist() == np.searchsorted(primes, limit // j, "right").tolist(), limit


@pytest.mark.parametrize("cells", [1, 7, valuation._PI_CELLS])
def test_prime_pi_table_below_3000(monkeypatch, cells):
    """large[j] = pi(limit // j), the sieve's count, for every limit below 3000
    and every j <= isqrt(limit), with the primes above icbrt(limit) in groups
    of at most one cell, 7 cells and ``_PI_CELLS``."""
    monkeypatch.setattr(valuation, "_PI_CELLS", cells)
    primes = primes_upto(2999)
    for limit in range(3000):
        j = np.arange(1, math.isqrt(limit) + 1)
        assert prime_pi_table(limit)[1][1:].tolist() == np.searchsorted(primes, limit // j, "right").tolist(), limit


def test_prime_pi_table_at_powers_of_ten():
    known = [4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534, 455052511, 4118054813]
    assert [int(prime_pi_table(10**k)[1][1]) for k in range(1, 12)] == known


# ---------------------------------------------------------------------------
# integer and factorial valuations

def test_nu_int_examples():
    assert nu_int(12, 2) == 2
    assert nu_int(7, 5) == 0
    assert nu_int(27, 3) == 3
    assert nu_int(1, 17) == 0


def test_nu_int_of_zero_raises():
    with pytest.raises(ValueError, match="valuation of 0"):
        nu_int(0, 7)


def test_nu_factorial_examples():
    assert nu_factorial(0, 7) == 0
    assert nu_factorial(1, 7) == 0
    assert nu_factorial(10, 2) == 8
    assert nu_factorial(25, 5) == 6
    assert nu_factorial(6, 7) == 0


def test_nu_factorial_rejects_negative():
    with pytest.raises(ValueError):
        nu_factorial(-1, 3)


def kummer_k2(m, p):
    """``kummer_binomial_valuation`` at k = 2, called as fn(m, p)."""
    return kummer_binomial_valuation(m, 2, p)


@pytest.mark.parametrize("fn", [nu_int, nu_factorial, kummer_k2])
@pytest.mark.parametrize("p", [1, 0, -1, -7])
def test_valuations_refuse_p_below_two(fn, p):
    """p = 1 used to loop forever (p = 0 divided by zero in the carry count);
    an alarm turns a hang into a failure."""

    def hang(*_args):
        raise TimeoutError(f"{fn.__name__}(5, {p}) did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="p must be a prime"):
            fn(5, p)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_nu_factorial_matches_incremental_counting():
    # Legendre's sum vs multiplying out m! factor by factor.
    for p in [2, 3, 5, 7, 11, 13, 29]:
        running = 0
        for m in range(1, 300):
            running += nu_int(m, p)
            assert nu_factorial(m, p) == running


def test_nu_factorial_over_primes_matches_scalar():
    primes = primes_upto(200)
    for m in [0, 1, 2, 17, 96, 97, 1000, 12345]:
        batch = nu_factorial_over_primes(m, primes)
        assert batch.dtype.name == "int64"
        assert batch.tolist() == [nu_factorial(m, int(p)) for p in primes]


def test_nu_factorial_over_primes_around_prime_powers():
    """Level 1 is one division over every prime, the deeper levels a loop
    over the cells with quotient >= p: pinned to the scalar sum where they meet."""
    primes = primes_upto(20000)
    ms = [m for p in (2, 3, 7, 101, 139) for m in (p * p - 1, p * p, p * p + 1, p**3)]
    for m in [*ms, 10**8 + 7, 2**40 + 1]:
        out = nu_factorial_over_primes(m, primes)
        assert out.tolist() == [nu_factorial(m, p) for p in primes.tolist()]


def test_nu_factorial_over_primes_with_one_prime_per_row():
    """The 2-D form of the reduced verdicts: a table of arguments against a
    column of primes, around each prime power p^k, at 0 and at 2^40 + 1."""
    primes = np.array([2, 3, 5, 7, 101, 3001], dtype=np.int64)
    powers = [[p**k for k in range(1, 5)] for p in primes.tolist()]
    m = np.array([[0, 2**40 + 1, *(q + d for q in row for d in (-1, 0, 1))] for row in powers])
    got = nu_factorial_over_primes(m, primes[:, None])
    assert got.shape == m.shape and got.dtype.name == "int64"
    assert got.tolist() == [[nu_factorial(a, p) for a in row] for row, p in zip(m.tolist(), primes.tolist())]
    # rows of one argument each, and a row of several arguments against one prime
    assert nu_factorial_over_primes(m[:, :1] + 10**6, primes[:, None]).ravel().tolist() == [
        nu_factorial(10**6, p) for p in primes.tolist()
    ]
    assert nu_factorial_over_primes(m[2], 5).tolist() == [nu_factorial(a, 5) for a in m[2].tolist()]


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(2 * 3**4 * 101) == [(2, 1), (3, 4), (101, 1)]
    # cofactors past the table of primes below 2^10, on both sides of 2^32
    assert factorize(2**32 - 5) == [(2**32 - 5, 1)]
    assert factorize(65521 * 65537) == [(65521, 1), (65537, 1)]
    assert factorize(2**32 + 15) == [(2**32 + 15, 1)]
    assert factorize(65537**2) == [(65537, 2)]
    for m in (0, -1, 2**63, 2**63 + 3):  # outside [1, 2^63)
        with pytest.raises(ValueError, match="must be >= 1 and fit in 64 bits"):
            factorize(m)


def test_factorize_reconstructs_argument():
    for m in [*range(1, 2000), 2**32 - 5, 65521 * 65537, 2**32 + 15, 65537**2]:
        factors = factorize(m)
        product = 1
        for p, e in factors:
            product *= p**e
        assert product == m
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})
        assert all(p % d for p, _ in factors for d in range(2, math.isqrt(p) + 1))


def is_prime_mr(m: int, bases: tuple[int, ...] = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)) -> bool:
    """Independent oracle: Miller-Rabin, with the first twelve prime bases
    deterministic below 3.3 * 10^24 > 2^63."""
    if m < 2:
        return False
    for q in bases:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in bases:
        x = pow(base, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def random_prime(rng, lo: int, hi: int) -> int:
    while True:
        m = rng.randrange(lo, hi)
        if is_prime_mr(m):
            return m


def test_factorize_above_2_32_matches_known_factors():
    """Cofactors past the primes below 2^10 go through Miller-Rabin and rho;
    each value here is built from primes certified by ``is_prime_mr``, so its
    factors are known."""
    rng = random.Random(15)
    cases = []
    for _ in range(6):  # prime squares in [2^32, 2^46)
        p = random_prime(rng, 1 << 16, 1 << 23)
        cases.append((p * p, [(p, 2)]))
    for _ in range(6):  # semiprimes with a factor near 2^16
        p = random_prime(rng, (1 << 16) - 3000, (1 << 16) + 3000)
        q = random_prime(rng, (1 << 32) // p + 1, (1 << 46) // p)
        cases.append((p * q, sorted([(p, 1), (q, 1)]) if p != q else [(p, 2)]))
    for _ in range(6):  # primes
        m = random_prime(rng, 1 << 32, 1 << 46)
        cases.append((m, [(m, 1)]))
    for _ in range(6):  # small prime powers times a large prime
        q = random_prime(rng, 1 << 20, 1 << 30)
        small = {2: rng.randint(0, 6), 3: rng.randint(0, 4), 7: rng.randint(0, 3)}
        m = q * math.prod(p**e for p, e in small.items())
        if 1 << 32 <= m < 1 << 46:
            cases.append((m, sorted([(p, e) for p, e in small.items() if e] + [(q, 1)])))
    assert len(cases) >= 20 and all(1 << 32 <= m < 1 << 46 for m, _ in cases)
    for m, expected in cases:
        assert factorize(m) == expected, m


def known(*factors: tuple[int, int]) -> tuple[int, list[tuple[int, int]]]:
    """(m, factors) for ascending (prime, exponent) pairs, each prime
    certified by ``is_prime_mr``: an expected factorization that shares no
    code with the factorizer."""
    assert all(is_prime_mr(p) for p, _ in factors)
    assert [p for p, _ in factors] == sorted({p for p, _ in factors})
    return math.prod(p**e for p, e in factors), list(factors)


#: Values whose cofactor after the primes below 2^10 is >= 2^20, so both
#: factorizer shapes hand it to ``_split``.
SPLIT_CASES = [
    known((149491, 1), (747451, 1), (34233211, 1)),  # a strong pseudoprime to every base <= 23
    known((1031, 2)),  # the least cofactor >= 2^20
    known((1031, 1), (1033, 1)),
    known((3037000493, 2)),  # a prime square just below 2^63
    known((7, 2), (73, 1), (127, 1), (337, 1), (92737, 1), (649657, 1)),  # 2^63 - 1
    known((2**63 - 25, 1)),  # the largest prime below 2^63
    known((65537, 3)),
    known(*((p, 1) for p in (1031, 1033, 1039, 1049, 1051, 1061))),  # six primes above 2^10
]

#: Small values hit by several primes of one tile.
TILE_CASES = [
    known(),
    known((2, 1)),
    known((3, 1)),
    known((2, 2)),
    known((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1)),
    known((2, 10), (3, 5), (5, 2)),
    known((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1)),
    known((999983, 1)),
    known((13, 1), (65537, 1)),
    known((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 2)),
]


def test_split_cases_are_the_pinned_values(monkeypatch):
    values = [m for m, _ in SPLIT_CASES]
    assert values[0] == 3825123056546413051 and values[4] == 2**63 - 1
    assert values[3] == 3037000493**2 < 2**63 <= 3037000500**2
    assert all(1 << 20 <= m < 1 << 63 for m in values)
    # the pseudoprime passes Miller-Rabin to the bases 2..23; 29..37 expose it
    assert is_prime_mr(values[0], bases=(2, 3, 5, 7, 11, 13, 17, 19, 23))
    assert not is_prime_mr(values[0]) and not is_prime(values[0])
    calls = []
    split = valuation._split
    monkeypatch.setattr(valuation, "_split", lambda m: calls.append(m) or split(m))
    for m, expected in SPLIT_CASES:
        calls.clear()
        assert factorize(m) == expected, m
        assert calls, m  # the cofactor went through _split


def test_blocked_trial_division_counts_several_primes_of_one_tile(monkeypatch):
    """A value hit by several primes of one tile keeps every division, and a
    cofactor >= 2^20 is split, under several tile sizes, one value per call
    and batched; the expected factors are built from ``is_prime_mr`` primes."""
    for cells in (1, 3, 4, 64, 1 << 20):  # 4 cells with one live value: four primes per tile
        monkeypatch.setattr(valuation, "_TILE_CELLS", cells)
        for batch in ([case] for case in TILE_CASES), [TILE_CASES], [TILE_CASES + SPLIT_CASES]:
            for chunk in batch:
                values = np.array([m for m, _ in chunk], dtype=np.int64)
                index, p, e = valuation._trial_division(values)
                assert index.dtype == p.dtype == e.dtype == np.int64
                rows = list(zip(index.tolist(), p.tolist(), e.tolist()))
                got = [sorted((q, k) for i, q, k in rows if i == j) for j in range(len(chunk))]
                assert got == [factors for _, factors in chunk], (cells, values)


def test_is_prime_against_trial_division_and_miller_rabin():
    """Below 2^17 every m against trial division; above, values around 2^20,
    products of two primes past 2^10 and the pinned split cases."""
    reference = set(trial_division_primes(1 << 17))
    assert [m for m in range(-3, 1 << 17) if is_prime(m)] == sorted(reference)
    rng = random.Random(22)
    values = [*range((1 << 20) - 200, (1 << 20) + 200), 1031 * 1033, 1031 * 1031, (1 << 61) - 1]
    values += [m for m, _ in SPLIT_CASES] + [rng.randrange(1 << 20, 1 << 62) | 1 for _ in range(200)]
    assert all(is_prime(m) == is_prime_mr(m) for m in values)


def test_is_prime_refuses_past_64_bits():
    """Miller-Rabin to 12 bases is exact only below 3.3 * 10^24, so ``is_prime``
    keeps to ``factorize``'s domain, m < 2^63, and refuses psi_12, the least
    strong pseudoprime to all 12 bases, rather than call it prime."""
    psi12 = 3317044064679887385961981
    assert psi12 == 1287836182261 * 2575672364521 and is_prime_mr(psi12)
    assert is_prime((1 << 63) - 25) and not is_prime((1 << 63) - 1)
    for m in (1 << 63, psi12):
        with pytest.raises(ValueError, match=f"cannot test {m} for primality; argument must fit in 64 bits"):
            is_prime(m)


def test_split_stops_a_walk_that_cannot_succeed():
    """With ``is_prime`` calling the prime 2^31 - 1 composite, every rho walk
    closes on m itself: the first one stops at its 16 (floor(m^(1/4)) + 1)
    steps and names m, within a second.  In a child, since the unbounded walks
    never returned."""
    code = ("import time\nfrom binomdiv import valuation\nfrom binomdiv.errors import IntegrityError\n"
            "real = valuation.is_prime\nvaluation.is_prime = lambda m: m != 2**31 - 1 and real(m)\n"
            "started = time.perf_counter()\ntry:\n    valuation.factorize(2**31 - 1)\n"
            "except IntegrityError as exc:\n    print(time.perf_counter() - started < 1, exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.stdout == ("True Pollard rho met no factor of 2147483647 in 3456 steps: "
                           "is_prime(2147483647) erred\n"), proc.stderr


def test_trial_division_keeps_cofactors_below_2_20_vectorized(monkeypatch):
    """Only cofactors >= 2^20 leave the vectorized column for ``_split``."""
    calls = []
    split = valuation._split
    monkeypatch.setattr(valuation, "_split", lambda m: calls.append(m) or split(m))
    primes = [1039, 104729, (1 << 20) - 3]  # (1 << 20) - 3 = 1048573 is prime
    assert all(is_prime_mr(p) for p in primes)
    index, p, e = valuation._trial_division(np.array([2 * q for q in primes] + [1031 * 1033], dtype=np.int64))
    assert calls[0] == 1031 * 1033 and sorted(calls[1:]) == [1031, 1033]  # rho, then both parts
    assert sorted(zip(index.tolist(), p.tolist(), e.tolist())) == [
        (0, 2, 1), (0, 1039, 1), (1, 2, 1), (1, 104729, 1),
        (2, 2, 1), (2, (1 << 20) - 3, 1), (3, 1031, 1), (3, 1033, 1),
    ]


# ---------------------------------------------------------------------------
# Kummer carries

def test_kummer_examples():
    assert kummer_binomial_valuation(4, 2, 2) == 1
    assert kummer_binomial_valuation(9, 0, 3) == 0
    assert kummer_binomial_valuation(8, 1, 2) == 3


def test_kummer_rejects_bad_k():
    with pytest.raises(ValueError):
        kummer_binomial_valuation(4, 5, 2)
    with pytest.raises(ValueError):
        kummer_binomial_valuation(4, -1, 2)


def test_kummer_equals_legendre_difference_small():
    for p in (2, 3, 5):
        table = [nu_factorial(m, p) for m in range(121)]
        for m in range(121):
            for k in range(m + 1):
                expected = table[m] - table[k] - table[m - k]
                assert kummer_binomial_valuation(m, k, p) == expected


# ---------------------------------------------------------------------------
# the floor inequality (Lemma 1)

def floor_margin(x, y):
    """The two sides of Lemma 1 subtracted, as five ``math.floor`` terms."""
    return (
        math.floor(2 * x) + math.floor(y)
        - math.floor(x) - math.floor(x - y) - math.floor(2 * y)
    )


def test_lemma1_examples():
    assert lemma1_margin(Fraction(0), Fraction(0)) == 0
    assert lemma1_margin(Fraction(1, 2), Fraction(1, 2)) == 0
    assert lemma1_margin(Fraction(3, 5), Fraction(1, 5)) == 1


@given(rationals, rationals)
def test_lemma1_always_holds(x, y):
    margin = lemma1_margin(x, y)
    assert margin == floor_margin(x, y)
    assert margin >= 0


def test_lemma1_margin_on_twelfths():
    """Every case boundary: u, v in {0, 1/2}, u = v, and negative x, y."""
    grid = [Fraction(k, 12) for k in range(-36, 37)]
    for x in grid:
        for y in grid:
            margin = lemma1_margin(x, y)
            assert margin == floor_margin(x, y) >= 0, (x, y)


def test_lemma_fuzz_small_run_and_determinism():
    first = lemma_fuzz(5000, 1000, seed=7)
    second = lemma_fuzz(5000, 1000, seed=7)
    assert first == second == ()
    assert lemma_fuzz(1, 10, seed=0) == ()


def test_lemma_fuzz_different_seeds_allowed():
    assert lemma_fuzz(1000, 50, seed=1) == ()
    assert lemma_fuzz(1000, 50, seed=2) == ()


def test_lemma_fuzz_argument_guards():
    with pytest.raises(ValueError):
        lemma_fuzz(0, 10)
    with pytest.raises(ValueError):
        lemma_fuzz(10, 0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=re.escape(f"seed must be in [0, 2^64), got {seed}")):
            lemma_fuzz(10, 10, seed=seed)
    assert lemma_fuzz(10, 10, seed=0) == lemma_fuzz(10, 10, seed=2**64 - 1) == ()
    with pytest.raises(ResourceLimitError):
        lemma_fuzz(10, 10**9 + 1)


def test_lemma_fuzz_at_the_int64_exactness_edge():
    """At max_den = FUZZ_MAX_DEN the cross term xn*yd - yn*xd reaches about
    2*FUZZ_MAX_DEN^2 < 2^63: no violation, and the closed-form check passes."""
    assert lemma_fuzz(100_000, FUZZ_MAX_DEN, seed=3) == ()


def test_lemma_fuzz_floor_of_a_nonnegative_numerator_is_floor_division():
    """``lemma_fuzz``'s floors divide ~q = -q-1 >= 0 where q < 0: ((q ^ s) // d) ^ s
    with s = q >> 63 equals q // d for every int64 q and d >= 1, on 10^6 seeded
    pairs over the whole range (d at every bit length) and at the edges."""
    rng = np.random.default_rng(36)
    q = rng.integers(-2**63, 2**63 - 1, size=10**6, dtype=np.int64, endpoint=True)
    d = rng.integers(1, 2**63 - 1, size=q.size, dtype=np.int64, endpoint=True) >> rng.integers(0, 63, size=q.size)
    edges = np.array([(x, y) for x in (-2**63, -1, 0, 1, 2**63 - 1) for y in (1, 3, 2**63 - 1)], dtype=np.int64)
    q, d = np.concatenate((q, edges[:, 0])), np.maximum(np.concatenate((d, edges[:, 1])), 1)
    s = q >> 63
    assert np.array_equal(((q ^ s) // d) ^ s, q // d)
    assert (q < 0).sum() > 4 * 10**5 and (d < 2**20).sum() > 10**5


def test_splitmix64_reference_gives_the_published_outputs():
    """The reference generator against the first outputs of SplitMix64 from 1234567."""
    stream = splitmix64(1234567)
    assert [next(stream) for _ in range(5)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423, 4593380528125082431, 16408922859458223821,
    ]


def test_lemma_fuzz_checks_the_first_256_pairs_of_the_block_stream(monkeypatch):
    """The pairs handed to ``lemma1_margin`` are the run's first 256 of the
    stream that the Python-integer SplitMix64 reference gives, here with blocks
    of 112 (the third one short, drawn into part of the buffers) and with one
    block: sample i is a function of (seed, i)."""
    real, checked = valuation.lemma1_margin, []
    monkeypatch.setattr(valuation, "lemma1_margin", lambda x, y: checked.append((x, y)) or real(x, y))
    expected = [(Fraction(xn, xd), Fraction(yn, yd)) for xn, xd, yn, yd in fuzz_samples(5, 1000, 256)]
    for block in (112, 1 << 14):
        monkeypatch.setattr(valuation, "_FUZZ_BLOCK", block)
        checked.clear()
        assert lemma_fuzz(300, 1000, seed=5) == ()
        assert checked == expected, block


def fuzz_draws(seed, lo, size, max_den):
    """``valuation._fuzz_draws`` of samples lo, ..., lo + size - 1, on fresh buffers."""
    z, t = np.empty((2, 4, size), dtype=np.uint64)
    return valuation._fuzz_draws(seed, lo, max_den, z, t)


def test_fuzz_draws_match_the_reference_from_any_sample():
    """Every draw of a block starting past sample 0, at both ends of the seed
    range and of max_den: the multiply-high on 32-bit halves is the exact
    product of Python integers, and a seed names its own stream."""
    for seed in (0, 5, 2**64 - 1):
        for max_den in (1, 1000, FUZZ_MAX_DEN):
            rows = fuzz_samples(seed, max_den, 1300)[300:]
            assert fuzz_draws(seed, 300, 1000, max_den).T.tolist() == [list(r) for r in rows]
    assert fuzz_samples(1, 1000, 20) != fuzz_samples(2, 1000, 20)


def test_lemma_fuzz_draws_every_value_at_max_den_2():
    xn, xd, yn, yd = fuzz_draws(42, 0, 10**4, 2)
    assert set(xn.tolist()) == set(yn.tolist()) == {-2, -1, 0, 1, 2}
    assert set(xd.tolist()) == set(yd.tolist()) == {1, 2}
    assert lemma_fuzz(10**4, 2) == ()


def test_lemma_fuzz_loads_no_numpy_random():
    code = ("import sys\nfrom binomdiv.valuation import lemma_fuzz\nassert lemma_fuzz(1000, 10) == ()\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_lemma_fuzz_reports_a_negative_margin_past_the_pinned_samples(monkeypatch):
    """The inequality holds for every draw, so only int64 products that wrap
    can give a negative margin: planted at sample 300, past the 256 checked
    against the closed form, that draw is reported, and no other."""
    plant, real = (-1936491312797304342, 403123853, -121751464, 1674216078), valuation._fuzz_draws

    def draws(seed, lo, max_den, z, t):
        out = real(seed, lo, max_den, z, t)
        if lo <= 300 < lo + out.shape[1]:
            out[:, 300 - lo] = plant
        return out

    monkeypatch.setattr(valuation, "_fuzz_draws", draws)
    assert lemma_fuzz(1000, 10) == ((Fraction(*plant[:2]), Fraction(*plant[2:])),)


def test_lemma_fuzz_cross_check_fires(monkeypatch):
    """The scalar closed form is wired in: an off-by-one reference is caught."""
    real = valuation.lemma1_margin
    monkeypatch.setattr(valuation, "lemma1_margin", lambda x, y: real(x, y) + 1)
    with pytest.raises(IntegrityError, match=r"at sample 0:"):
        lemma_fuzz(10, 10)
