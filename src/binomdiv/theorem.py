"""The central divisibility theorem: claims, proof traces, sweeps.

For positive integers a > b >= 1 and every n >= 1,

    (2bn+1)(2bn+3) C(2bn,bn)  |  3(a-b)(3a-b) C(2an,an) C(an,bn)

which reduces, since gcd(2bn+1, 2bn+3) = 1, to showing that each
modulus divides 3(a-b)(3a-b) * R where

    R(a,b,n) = C(2an,an) C(an,bn) / C(2bn,bn)
             = (2an)! (bn)! / ((an)! ((a-b)n)! (2bn)!)

is itself an integer: each per-level Legendre addend of nu_p(R) is the
margin of the floor inequality (Lemma 1), >= 0 in closed form by
``valuation.lemma1_margin``.

``trace(t, p, side)`` replays the per-prime case analysis of one half,
2bn+delta with delta = 1 or 3.  Let p^alpha || 2bn+delta, P = p^i with
i <= alpha, u = {an/P} and tau_delta = max over odd d <= delta of
nu_p(delta*a - d*b), which the multiplier 3(a-b)(3a-b) = (3a-b)(3a-3b)
covers.  Either alpha <= tau_delta, or each level in (tau_delta, alpha]
adds exactly 1 to nu_p(R).  For P > delta, {bn/P} = (P-delta)/(2P) < 1/2,
so the level term [u >= 1/2] + [u < {bn/P}] is 0 or 1, and 0 exactly when
2an == -d (mod P) for an odd d <= delta; with 2bn == -delta, P divides
n(delta*a - d*b).  If p > delta, p does not divide n (else p | delta), so
zero levels are <= tau_delta.  If p = delta = 3, tau >= nu_3(3a-3b) >= 1
covers alpha = 1, which 9 | n forces; alpha >= 2 needs nu_3(bn) = 1, so
levels past tau have P >= 9 and nu_3(n) <= 1: d = 3 gives P | n(a-b), so
i <= nu_3(3a-3b); d = 1 gives P | n(3a-b), and 3 | n leaves 3a-b prime to
3, so i <= max(1, nu_3(3a-b)).  Other p <= delta are not proved here: for
four consecutive odd moduli the window lcm is not enough at p = 3.

Two classic congruences of the same flavor are stated as claims too,

    3 * S_n == 0 (mod 2n+3),   S_n = C(6n,3n)C(3n,n) / (2(2n+1)C(2n,n))
    21 * t_n == 0 (mod 10n+3), t_n = C(15n,5n)C(5n-1,n-1) / ((10n+1)C(3n,n))

the first of which follows from the theorem at (a,b) = (3,1).  Since
(5n-1)!/(5n)! = 1/(5n) and n!/(n-1)! = n, t_n = L(n) / (5(10n+1)) with
L = C(15n,5n)C(5n,n)/C(3n,n) = (15n)!(2n)!/((10n)!(4n)!(3n)!), and the
t_n claims are stated that way: every claim here has a Landau-certified
core with zero offsets.  This module only states claims and replays
proofs; ``ratio`` decides them.
"""

from __future__ import annotations

import enum
import math
import os
import random
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .ratio import (
    DivisibilityClaim,
    FactorialRatio,
    LinearForm,
    _instance,
    _r_sides,
    binomial_ratio,
    claims_hold,
    ratio_level_terms,
)
from .valuation import factorize, is_prime, nu_int


def _check_pair(a: int, b: int) -> None:
    if b < 1 or a <= b:
        raise ValueError(f"need a > b >= 1, got a={a}, b={b}")


@dataclass(frozen=True)
class ParamTriple:
    """(a, b, n) with a > b >= 1 and n >= 1."""

    a: int
    b: int
    n: int

    def __post_init__(self) -> None:
        _check_pair(self.a, self.b)
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")


def _r_integrality_claim(a: int, b: int) -> DivisibilityClaim:
    """R(a,b,n) is an integer: C(2bn,bn) | C(2an,an)C(an,bn)."""
    _check_pair(a, b)
    divisor, dividend = _r_sides(a, b)
    return DivisibilityClaim((), divisor, (), dividend)


def conjecture_claim(a: int, b: int) -> DivisibilityClaim:
    """The divisibility claim for fixed (a, b), with n left symbolic."""
    return replace(
        _r_integrality_claim(a, b),
        divisor_moduli=(LinearForm(2 * b, 1), LinearForm(2 * b, 3)),
        multiplier_constants=(3, a - b, 3 * a - b),
    )


@lru_cache(maxsize=4096)
def conjecture_ratio(a: int, b: int) -> FactorialRatio:
    """R(a,b,n) = C(2an,an)C(an,bn)/C(2bn,bn), the integer-valued core ratio."""
    return _r_integrality_claim(a, b).core  # trace takes a >= 1.02e9; conjecture_claim refuses it


# ---------------------------------------------------------------------------
# proof traces

class ModulusSide(enum.Enum):
    TWO_BN_PLUS_1 = "2bn+1"
    TWO_BN_PLUS_3 = "2bn+3"

    @property
    def delta(self) -> int:
        """The odd offset delta of the modulus 2bn+delta."""
        return int(self.value[-1])

    def at(self, t: ParamTriple) -> int:
        """The value of this modulus at the triple."""
        return 2 * t.b * t.n + self.delta


class TraceBranch(enum.Enum):
    MULTIPLIER_COVERS = "multiplier-covers"
    LEVEL_ANALYSIS = "level-analysis"


@dataclass(frozen=True)
class ProofTrace:
    """Executable replay of the per-prime case analysis for one (a,b,n,p).

    ``levels`` lists (i, per-level Legendre addend of nu_p(R)) for the
    levels in (tau, alpha], each asserted == 1, where tau = tau_delta of
    the side's modulus 2bn+delta (see the module docstring).
    """

    triple: ParamTriple
    p: int
    modulus_side: ModulusSide
    modulus_value: int
    alpha: int
    beta: int
    gamma: int
    tau: int
    branch: TraceBranch
    levels: tuple[tuple[int, int], ...]
    satisfied: bool
    failures: tuple[str, ...]


def trace(t: ParamTriple, p: int, side: ModulusSide) -> ProofTrace:
    """The case analysis for a prime p of the side's modulus 2bn+delta: the
    multiplier covers p^alpha, or each level in (tau_delta, alpha] is 1.
    Every assertion is expected to pass.
    """
    a, b, n = t.a, t.b, t.n
    modulus = side.at(t)
    alpha = nu_int(modulus, p)  # refuses p < 2 before anything divides by p
    if not alpha:
        raise ValueError(f"p={p} does not divide {side.value} = {modulus}")
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    beta = nu_int(a - b, p)
    gamma = nu_int(3 * a - b, p)
    tau = max(nu_int(side.delta * a - d * b, p) for d in range(1, side.delta + 1, 2))
    # terms[i] is the level-i addend of nu_p(R); levels past the table add 0
    terms = [0, *ratio_level_terms(conjecture_ratio(a, b), n, p)] + [0] * alpha
    nu_ratio = sum(terms)
    multiplier_nu = nu_int(3, p) + beta + gamma

    failures: list[str] = []
    levels = tuple((i, terms[i]) for i in range(tau + 1, alpha + 1))
    branch = TraceBranch.LEVEL_ANALYSIS if levels else TraceBranch.MULTIPLIER_COVERS
    if levels:
        failures += [f"level {i} term is {term}, expected exactly 1" for i, term in levels if term != 1]
        if p > side.delta and math.gcd(p, n) != 1:
            failures.append(f"gcd({p}, n) != 1 although p > {side.delta} divides {side.value}")
        if nu_ratio < alpha - tau:
            failures.append(f"nu_p(R) = {nu_ratio} < alpha - tau = {alpha - tau}")

    if multiplier_nu + nu_ratio < alpha:
        failures.append(
            f"nu_p(3(a-b)(3a-b)R) = {multiplier_nu + nu_ratio} < alpha = {alpha}"
        )
    return ProofTrace(
        triple=t,
        p=p,
        modulus_side=side,
        modulus_value=modulus,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        tau=tau,
        branch=branch,
        levels=levels,
        satisfied=not failures,
        failures=tuple(failures),
    )


def traces_for_modulus(t: ParamTriple, side: ModulusSide) -> list[ProofTrace]:
    """One trace per prime factor of the selected modulus."""
    return [trace(t, p, side) for p, _ in factorize(side.at(t))]


# ---------------------------------------------------------------------------
# the S_n and t_n congruences

def s_integrality_claim() -> DivisibilityClaim:
    """S_n is an integer: 2(2n+1)C(2n,n) | C(6n,3n)C(3n,n), the sides of R(3, 1)."""
    return replace(_r_integrality_claim(3, 1), divisor_moduli=(LinearForm(0, 2), LinearForm(2, 1)))


def t_integrality_claim() -> DivisibilityClaim:
    """t_n is an integer: 5(10n+1)C(3n,n) | C(15n,5n)C(5n,n), i.e. 5(10n+1) | L(n)."""
    return DivisibilityClaim(
        divisor_moduli=(LinearForm(0, 5), LinearForm(10, 1)),
        divisor_ratio=binomial_ratio(LinearForm(3, 0), LinearForm(1, 0)),
        multiplier_constants=(),
        dividend_ratio=binomial_ratio(LinearForm(15, 0), LinearForm(5, 0))
        * binomial_ratio(LinearForm(5, 0), LinearForm(1, 0)),
    )


def s_congruence_claim() -> DivisibilityClaim:
    """3*S_n == 0 (mod 2n+3): (2n+3) 2(2n+1)C(2n,n) | 3 C(6n,3n)C(3n,n)."""
    return _with_modulus(s_integrality_claim(), LinearForm(2, 3), 3)


def t_congruence_claim() -> DivisibilityClaim:
    """21*t_n == 0 (mod 10n+3): 5(10n+1)(10n+3) | 21 L(n)."""
    return _with_modulus(t_integrality_claim(), LinearForm(10, 3), 21)


def _with_modulus(
    claim: DivisibilityClaim, modulus: LinearForm, multiplier: int
) -> DivisibilityClaim:
    return replace(
        claim,
        divisor_moduli=claim.divisor_moduli + (modulus,),
        multiplier_constants=claim.multiplier_constants + (multiplier,),
    )


# ---------------------------------------------------------------------------
# parameter sweeps

@dataclass(frozen=True)
class SweepReport:
    checked: int
    violations: tuple[tuple[ParamTriple, int], ...]


def _pair(k: int, b_max: int) -> tuple[int, int]:
    """The k-th (a, b) of the box in ``sweep_pairs`` order, in closed form.

    The first b_max(b_max+1)/2 pairs form a triangle (a <= b_max+1, where
    a contributes a-1 pairs); every later a contributes b_max pairs.
    """
    triangle = b_max * (b_max + 1) // 2
    if k >= triangle:
        a, b = divmod(k - triangle, b_max)
        return a + b_max + 2, b + 1
    m = (math.isqrt(8 * k + 1) + 1) // 2  # m(m-1)/2 <= k < m(m+1)/2
    return m + 1, k - m * (m - 1) // 2 + 1


def _pair_count(a_max: int, b_max: int) -> int:
    c = min(a_max - 1, b_max)  # the triangle's last a is c + 1
    return c * (c + 1) // 2 + (a_max - 1 - c) * b_max


def sweep_pairs(a_max: int, b_max: int) -> list[tuple[int, int]]:
    """All (a, b) with 1 <= b < a <= a_max and b <= b_max, lexicographic."""
    return [_pair(k, b_max) for k in range(_pair_count(a_max, b_max))]


#: Box indices per ``claims_hold`` call of ``_sweep_chunk``.
_SWEEP_BLOCK = 1 << 15


def _sweep_chunk(job) -> list[tuple[int, int, int, int]]:
    """Worker: verify (b_max, n_max, box indices), return the violations."""
    b_max, n_max, indices = job
    violations: list[tuple[int, int, int, int]] = []
    for lo in range(0, len(indices), _SWEEP_BLOCK):
        box = np.fromiter(indices[lo : lo + _SWEEP_BLOCK], dtype=np.int64)  # all < len(range) < 2^63
        ks, which = np.unique(box // n_max, return_inverse=True)
        pairs, ns = [_pair(k, b_max) for k in ks.tolist()], box % n_max + 1
        holds, witness = claims_hold([conjecture_claim(*pair) for pair in pairs], which, ns)
        violations += [(*pairs[which[i]], int(ns[i]), int(witness[i])) for i in np.flatnonzero(~holds)]
    return violations


def run_sweep(
    a_max: int,
    b_max: int,
    n_max: int,
    jobs: int = 1,
    sample: int | None = None,
    seed: int = 42,
) -> SweepReport:
    """Verify the claim over the (a, b, n) box, optionally in parallel.

    The box is the index range ``range(pairs * n_max)``, pairs in
    ``sweep_pairs`` order and n fastest.  Exhaustive by default; with
    ``sample``, that many sorted indices drawn without replacement
    using the given seed.  Either is cut into 4 contiguous slices per
    worker, min(jobs, CPUs the process may run on), and no pair list is
    built.  Workers decide their slice in blocks of ``_SWEEP_BLOCK``
    indices, one ``claims_hold`` call each, so memory is O(workers * block),
    or O(sample).  Violations are merged and sorted by (a, b, n): the report
    is the same for any jobs and block.
    """
    if min(a_max, b_max, n_max) < 1:
        raise ValueError("a_max, b_max and n_max must all be >= 1")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if a_max > 1:  # (a_max, 1, n_max) has the largest multiplier and budget, 4an, of the box
        _instance(conjecture_claim(a_max, 1), n_max)
    if (triples := _pair_count(a_max, b_max) * n_max) >= 2**63:  # len() and random.sample refuse it
        raise OverflowError(f"the box has {triples} triples; a sweep indexes at most 2^63 - 1")
    box = range(triples)
    if sample is not None:
        box = sorted(random.Random(seed).sample(box, min(sample, len(box))))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, cpus)
    step = max(1, math.ceil(len(box) / (workers * 4)))
    payloads = [(b_max, n_max, box[lo : lo + step]) for lo in range(0, len(box), step)]

    if workers == 1 or len(payloads) <= 1:
        outcomes = [_sweep_chunk(p) for p in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only the pool loads multiprocessing
        with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
            outcomes = list(pool.map(_sweep_chunk, payloads))

    raw = sorted(v for vs in outcomes for v in vs)
    violations = tuple((ParamTriple(a, b, n), w) for a, b, n, w in raw)
    return SweepReport(checked=len(box), violations=violations)  # the payloads partition the box
