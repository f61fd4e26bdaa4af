"""Prime generation and exact p-adic valuation arithmetic.

Everything in this module is exact: integers, or rationals in lowest
terms (``fractions.Fraction``).  No floating point enters any
computation or result; the valuation of 0 is refused with ``ValueError``.

Valuations of factorials use Legendre's formula

    nu_p(m!) = sum_{i>=1} floor(m / p^i)

computed by iterated division ``q <- q // p``, so no power ``p^i`` is
ever materialized and no intermediate exceeds ``m``.  Both verdict paths
of ``ratio`` take the one vectorized form, ``nu_factorial_over_primes``.
The tests pin it to a scalar Legendre sum, and that sum to incremental
factor counting and to Kummer's carry count of binomials.

The floor inequality (Lemma 1) is proved in closed form by
``lemma1_margin``; ``lemma_fuzz`` pins its int64 floors to it on SplitMix64 draws.

All public operations are pure functions of their inputs.  ``primes_upto``
is the one sieve and ``is_prime`` the one primality test.  The module keeps
no state beyond the table of the primes below 2^10, which ``primes_upto``
builds at import, and their product, which ``is_prime`` tests coprimality
to below 2^20: both shapes of the factorizer divide by the table before
``is_prime`` and Pollard rho take the cofactors left over; neither sieves.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from .errors import IntegrityError, ResourceLimitError

#: Hard ceiling for sieve limits (memory guard).
SIEVE_LIMIT = 2**31

#: Largest denominator accepted by the vectorized lemma fuzzer; keeps
#: every int64 intermediate (numerator*denominator products) exact.
FUZZ_MAX_DEN = 10**9

#: Samples per block of ``lemma_fuzz``: its int64 rows (128 KiB each) and draw buffers stay in L2.
_FUZZ_BLOCK = 1 << 14

_PI_CELLS = 1 << 14  # cells (p, j) per group of ``prime_pi_table``'s primes above icbrt(limit)

#: Odd numbers per sieve segment: a 1 MiB flag array, which stays in L2.
_SEGMENT = 1 << 20

#: Cells (values x primes) per tile of ``_trial_division``.
_TILE_CELLS = 1 << 20


# ---------------------------------------------------------------------------
# primes

def primes_upto(limit: int) -> np.ndarray:
    """Read-only ascending int64 array of all primes <= limit, sieved per call:
    a plain sieve to root = max(isqrt(limit), 2), then odd numbers only, in
    segments of ``_SEGMENT`` (``flags[i]`` is lo + 2i).

    Raises ``ResourceLimitError`` for limits beyond ``SIEVE_LIMIT``.
    """
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if limit > SIEVE_LIMIT:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds the {SIEVE_LIMIT} memory guard"
        )
    root = max(math.isqrt(limit), 2)
    base_flags = np.ones(root + 1, dtype=bool)
    base_flags[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base_flags[p]:
            base_flags[p * p :: p] = False
    base = np.flatnonzero(base_flags).astype(np.int64)
    chunks = [base[base <= limit]]
    odd_base = base[1:].tolist()
    lo = (root + 1) | 1
    while lo <= limit:
        count = min(_SEGMENT, (limit - lo) // 2 + 1)
        flags = np.ones(count, dtype=bool)
        for p in odd_base:  # lo + 2i == 0 (mod p) at i = -lo/2 (mod p); lo > p
            flags[(-lo * (p + 1) // 2) % p :: p] = False
        chunks.append(np.flatnonzero(flags) * 2 + lo)
        lo += 2 * count
    out = np.concatenate(chunks)
    out.flags.writeable = False
    return out


def prime_pi_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(primes, large): the primes <= r = isqrt(limit), whose count is pi(r),
    and large[j] = pi(limit // j) for 1 <= j <= r, by Legendre-Meissel's
    recurrence in Lucy_Hedgehog's form over small[v] = pi(v) for v <= r: from
    S(v) = v - 1, each prime p <= r takes S(v) -= S(v // p) - pi(p - 1) for
    v >= p^2.  O(limit^(3/4)) time, O(r) memory, and one sieve, to r.  The
    primes p <= icbrt(limit) go one by one.  A larger one writes only
    large[1 .. limit // p^2], all below p, and reads only large[j p], at p or
    above, and small, final as p^2 > r: none reads what another writes, so they
    go in one pass, in groups of at most ``_PI_CELLS`` cells (p, j)."""
    r = math.isqrt(limit)
    j = np.arange(r + 1, dtype=np.int64)
    small, large = np.maximum(j - 1, 0), np.maximum(limit // np.maximum(j, 1) - 1, 0)
    primes = primes_upto(r)
    split = bisect.bisect(plist := primes.tolist(), limit, key=lambda p: p**3)  # p <= icbrt(limit)
    for p in plist[:split]:  # r // p <= limit // p^2: large[j p] for j <= r // p, small[(limit // p) // j] above
        sp, k, top = small[p - 1], r // p, min(r, limit // (p * p))
        large[1 : k + 1] -= large[p::p] - sp
        large[k + 1 : top + 1] -= small[(limit // p) // j[k + 1 : top + 1]] - sp
        if p * p <= r:  # after large, which reads the old small
            small[p * p :] -= small[j[p * p :] // p] - sp
    big = primes[split:]
    tops = limit // (big * big)
    for group in np.split(big, np.searchsorted(np.cumsum(tops), range(_PI_CELLS, tops.sum(), _PI_CELLS))):
        p = np.repeat(group, limit // (group * group))  # cell (p, q) for 1 <= q <= limit // p^2
        q = np.arange(1, p.size + 1) - np.searchsorted(p, p)
        terms = np.where(q * p <= r, large[np.minimum(q * p, r)], small[np.minimum(limit // p // q, r)])
        np.subtract.at(large, q, terms - small[p - 1])
    return primes, large


#: The primes below 2^10, the one trial-division table of ``factorize`` and
#: ``_trial_division``: a cofactor below 2^20 left by them is prime.
_TRIAL_PRIMES = primes_upto((1 << 10) - 1)
#: Their product: m is coprime to it iff no table prime divides m.
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES.tolist())


def is_prime(m: int) -> bool:
    """Whether m is prime, without factoring it: below 2^20 by the table below
    2^10 and coprimality to its primes, above by deterministic Miller-Rabin to
    the first 12 prime bases, exact below 3.3 * 10^24 (Sorenson and Webster,
    Math. Comp. 2017): with m - 1 = d 2^s, d odd, each base a has x = a^d = 1,
    or x^(2^j) = -1 (mod m) for some j < s, each power the square of the last.
    m >= 2^63 is refused (``ValueError``): the 64-bit domain of ``factorize``."""
    if m >= 1 << 63:
        raise ValueError(f"cannot test {m} for primality; argument must fit in 64 bits")
    if m < 1 << 20:
        return m in _TRIAL_PRIMES if m < 1 << 10 else math.gcd(m, _TRIAL_PRODUCT) == 1
    s = ((m - 1) & (1 - m)).bit_length() - 1
    d = (m - 1) >> s
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _split(m: int) -> Counter[int]:
    """The prime factors, with multiplicity, of m > 1 with no prime factor
    below 2^10: m when ``is_prime(m)`` (always below 2^20), else those of the
    two parts at the factor g that Pollard rho finds (Floyd cycle detection; a
    walk that closes on g = m restarts with c + 1).  Composite m has a prime
    p <= sqrt(m), met in about sqrt(p) <= m^(1/4) steps: a walk that meets no
    factor in 16 (floor(m^(1/4)) + 1) steps means ``is_prime`` erred (``IntegrityError``)."""
    if is_prime(m):
        return Counter({m: 1})
    cap = 16 * (math.isqrt(math.isqrt(m)) + 1)
    for c in range(1, m):  # rho finds a factor long before c runs out
        x, y, g, steps = 2, 2, 1, 0
        while g == 1 and steps < cap:
            x, y, steps = (x * x + c) % m, ((y * y + c) ** 2 + c) % m, steps + 1
            g = math.gcd(x - y, m)
        if g == 1:
            raise IntegrityError(f"Pollard rho met no factor of {m} in {cap} steps: is_prime({m}) erred")
        if g != m:
            return _split(g) + _split(m // g)


def factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of 1 <= m < 2^63 as ascending (prime, exponent) pairs.

    Trial division by the primes below 2^10, reusing ``nu_int``, then
    ``_split`` of the cofactor left over; no sieve is run.
    """
    if not 1 <= m < 1 << 63:
        raise ValueError(f"cannot factor {m}; argument must be >= 1 and fit in 64 bits")
    out = [(p, nu_int(m, p)) for p in _TRIAL_PRIMES[m % _TRIAL_PRIMES == 0].tolist()]
    m //= math.prod(p**e for p, e in out)
    return out + sorted(_split(m).items()) if m > 1 else out


def _trial_division(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(index, p, e) int64 columns, one per p^e || values[index] (each in
    [1, 2^63)), by trial division with the table primes <= isqrt(max) in tiles
    of at most ``_TILE_CELLS`` live values x primes; a value leaves once p^2 >
    its cofactor.  A cofactor left over is prime below 2^20, and goes through
    ``_split`` from 2^20 on.  Two primes of one tile can hit one value:
    exponents are counted on copies, and ``floor_divide.at`` applies each."""
    primes = _TRIAL_PRIMES[: np.searchsorted(_TRIAL_PRIMES, math.isqrt(int(values.max(initial=1))), "right")]
    rest, live, start, found = values.astype(np.int64), np.arange(values.size), 0, []
    while start < primes.size and (live := live[rest[live] >= primes[start] ** 2]).size:
        tile = primes[start : start + max(1, _TILE_CELLS // live.size)]
        start += tile.size
        hit, column = np.nonzero(rest[live, None] % tile == 0)
        index, p = live[hit], tile[column]
        q, e = rest[index] // p, np.ones_like(p)
        while (more := np.flatnonzero(q % p == 0)).size:
            q[more] //= p[more]
            e[more] += 1
        np.floor_divide.at(rest, index, rest[index] // q)  # rest // q is p^e
        found.append((index, p, e))
    for i in np.flatnonzero(rest >= 1 << 20).tolist():
        p, e = np.array(list(_split(int(rest[i])).items()), dtype=np.int64).T
        found.append((np.full(p.size, i), p, e))
        rest[i] = 1
    index = np.flatnonzero(rest > 1)
    found.append((index, rest[index], np.ones_like(index)))
    return tuple(np.concatenate(column) for column in zip(*found))


# ---------------------------------------------------------------------------
# valuations

def nu_int(m: int, p: int) -> int:
    """Largest k with p^k | m, by repeated exact division.

    The sign of m is ignored; m == 0 raises ``ValueError``.
    Primality of p is the caller's responsibility: callers draw p from a
    prime table, and a per-call check would dominate the hot loops.
    """
    if p < 2:  # the division loop would never end
        raise ValueError(f"p must be a prime, got {p}")
    if m == 0:  # every power of p divides 0: the loop would never end either
        raise ValueError("the valuation of 0 is infinite")
    m = abs(m)
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return k


def nu_factorial_over_primes(m: int | np.ndarray, primes: np.ndarray) -> np.ndarray:
    """nu_p(m!) elementwise over int64 m and primes p broadcast together: one
    argument against an array of primes, or arguments against one prime per row.

    Level 1 is one division over every cell; the deeper levels run only over
    the cells whose quotient is still >= p, a set that shrinks each level.
    """
    out = np.floor_divide(m, primes)
    flat = out.reshape(-1)  # a view: out is a fresh array
    p = np.broadcast_to(primes, out.shape).ravel()
    cell = np.flatnonzero(flat >= p)
    q, p = flat[cell], p[cell]
    while cell.size:
        q //= p
        flat[cell] += q
        keep = q >= p
        cell, q, p = cell[keep], q[keep], p[keep]
    return out


# ---------------------------------------------------------------------------
# the floor inequality (Lemma 1)

def lemma1_margin(x: Fraction, y: Fraction) -> int:
    """floor(2x) + floor(y) - floor(x) - floor(x-y) - floor(2y), in closed form.

    With u = {x} and v = {y} the integer parts cancel, leaving
    floor(2u) - floor(2v) - floor(u-v) = [u >= 1/2] - [v >= 1/2] + [u < v].
    That is >= 0 in all four cases: with u, v on one side of 1/2 it is
    [u < v]; u >= 1/2 > v gives 1; u < 1/2 <= v forces u < v, giving 0.
    So Lemma 1 holds for all real x, y.
    """
    u, v = x % 1, y % 1
    return (2 * u >= 1) - (2 * v >= 1) + (u < v)


def _fuzz_draws(seed: int, lo: int, max_den: int, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rows xn, xd, yn, yd of samples lo, ..., lo + size - 1 as int64, written over z,
    a (4, size) uint64 array, with t as scratch.  Sample i's values are SplitMix64's
    outputs at counters c = 4i, ..., 4i + 3, mix(seed + (c + 1) gamma) mod 2^64, each
    mapped to [low, max_den] as low + output * span // 2^64 (span < 2^31) by a
    multiply-high exact on its 32-bit halves.  No floating point; the mix and the
    map write in place."""
    gamma = 0x9E3779B97F4A7C15  # SplitMix64 (Steele, Lea and Flood, OOPSLA 2014)
    keys = np.array([[(seed + j * gamma) % 2**64] for j in range(1, 5)], dtype=np.uint64)
    np.add(np.arange(lo, lo + z.shape[1], dtype=np.uint64) * np.uint64(4 * gamma % 2**64), keys, out=z)
    for shift, multiplier in (30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB):
        z ^= np.right_shift(z, shift, out=t)
        z *= np.uint64(multiplier)
    z ^= np.right_shift(z, 31, out=t)
    span = np.array([[2 * max_den + 1], [max_den]] * 2, dtype=np.uint64)  # of [-max_den, max_den], [1, max_den]
    np.multiply(np.bitwise_and(z, 2**32 - 1, out=t), span, out=t)  # low and high halves' products < 2^63
    np.multiply(np.right_shift(z, 32, out=z), span, out=z)
    z += np.right_shift(t, 32, out=t)
    z >>= 32
    return np.add(z.view(np.int64), [[-max_den], [1]] * 2, out=z.view(np.int64))


def lemma_fuzz(samples: int, max_den: int, seed: int = 42) -> tuple[tuple[Fraction, Fraction], ...]:
    """The pairs (x, y) among ``samples`` seeded pseudo-random rationals, with
    |numerator| <= max_den and 1 <= denominator <= max_den, that violate the
    floor inequality; the expected result is ().

    One pass over blocks of ``_FUZZ_BLOCK`` samples, so memory is bounded
    whatever ``samples`` is: each block draws its xn, xd, yn and yd into the
    run's two buffers by ``_fuzz_draws``, a counter-based SplitMix64 stream in
    which sample i is a pure function of (seed, i), evaluates the five floors
    as one exact int64 margin, and keeps its own violating pairs.  The margins
    of the run's first 256 samples must equal the closed form ``lemma1_margin``
    (``IntegrityError``), so the floor arrays cannot drift from the proof.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if max_den < 1:
        raise ValueError(f"max_den must be >= 1, got {max_den}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    if max_den > FUZZ_MAX_DEN:
        raise ResourceLimitError(
            f"max_den {max_den} exceeds the int64-exactness guard {FUZZ_MAX_DEN}"
        )
    violations, (z, t) = [], np.empty((2, 4, min(samples, _FUZZ_BLOCK)), dtype=np.uint64)
    floor = lambda q, d: ((q ^ (s := q >> 63)) // d) ^ s  # ~q = -q-1 >= 0 for q < 0: q // d = ~(~q // d)
    for lo in range(0, samples, _FUZZ_BLOCK):
        size = min(_FUZZ_BLOCK, samples - lo)
        xn, xd, yn, yd = _fuzz_draws(seed, lo, max_den, z[:, :size], t[:, :size])
        margin = floor(2 * xn, xd) + floor(yn, yd) - floor(xn, xd) - floor(xn * yd - yn * xd, xd * yd) - floor(2 * yn, yd)
        pinned = min(max(256 - lo, 0), size)
        for i in sorted({*range(pinned), *np.flatnonzero(margin < 0).tolist()}):
            x, y = Fraction(int(xn[i]), int(xd[i])), Fraction(int(yn[i]), int(yd[i]))
            if i < pinned and margin[i] != (ref := lemma1_margin(x, y)):
                raise IntegrityError(
                    "vectorized lemma engine disagrees with the closed form at "
                    f"sample {lo + i}: margin {margin[i]} vs {ref} at ({x}, {y})"
                )
            if margin[i] < 0:
                violations.append((x, y))
    return tuple(violations)
