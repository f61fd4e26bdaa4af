"""Cross-validation suites: the valuation engine vs independent routes.

Each suite pits a fast path against a slow, structurally unrelated one
(trial division, incremental factor counting, carry counting, exact
big-integer arithmetic) over a desk-scale box and reports any
disagreement.  The suites are what ``binomdiv oracle-check`` runs.
"""

from __future__ import annotations

from typing import NamedTuple

from . import oracle
from .errors import IntegrityError
from .theorem import (
    conjecture_claim,
    s_congruence_claim,
    s_integrality_claim,
    sweep_pairs,
    t_congruence_claim,
    t_integrality_claim,
)
from .ratio import claims_hold, verify_claim
from .valuation import kummer_binomial_valuation, nu_factorial, nu_int, primes_upto


class SuiteResult(NamedTuple):
    name: str
    checked: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _trial_division_primes(limit: int) -> list[int]:
    out = []
    for m in range(2, limit + 1):
        d = 2
        while d * d <= m:
            if m % d == 0:
                break
            d += 1
        else:
            out.append(m)
    return out


def suite_sieve() -> SuiteResult:
    """Sieve output equals brute-force trial-division enumeration."""
    limit = 2000
    failures = []
    expected = _trial_division_primes(limit)
    got = primes_upto(limit).tolist()
    if got != expected:
        failures.append(f"primes_upto({limit}) disagrees with trial division")
    return SuiteResult("sieve-vs-trial-division", limit, tuple(failures))


def suite_legendre_incremental() -> SuiteResult:
    """nu_p(m!) equals the running sum of nu_p(j) for j = 1..m <= 500, p <= 50."""
    failures = []
    checked = 0
    for p in primes_upto(50).tolist():
        running = 0
        for m in range(1, 501):
            running += nu_int(m, p)
            checked += 1
            if nu_factorial(m, p) != running:
                failures.append(f"nu_{p}({m}!) != incremental count {running}")
    return SuiteResult("legendre-vs-incremental", checked, tuple(failures))


def suite_kummer() -> SuiteResult:
    """Carry counts equal Legendre differences for C(m, k), m <= 200, p <= 11."""
    failures = []
    checked = 0
    for p in (2, 3, 5, 7, 11):
        table = [nu_factorial(m, p) for m in range(201)]
        for m in range(201):
            for k in range(m + 1):
                checked += 1
                if kummer_binomial_valuation(m, k, p) != table[m] - table[k] - table[m - k]:
                    failures.append(f"Kummer disagrees at C({m},{k}), p={p}")
    return SuiteResult("kummer-vs-legendre", checked, tuple(failures))


def suite_claims_vs_oracle() -> SuiteResult:
    """Valuation verdicts equal exact big-integer divisibility, a <= 5, n <= 10.

    Both valuation routes are pinned: ``claims_hold`` (the reduced path
    for these certified claims, one call per pair) and the full ledger of
    ``verify_claim``.
    """
    failures = []
    checked = 0
    for a, b in sweep_pairs(5, 4):
        claim = conjecture_claim(a, b)
        verdicts = claims_hold((claim,), [0] * 10, range(1, 11))[0].tolist()
        for n, holds in enumerate(verdicts, start=1):
            checked += 1
            divisor, dividend = oracle.conjecture_sides(a, b, n)
            exact = oracle.divides(divisor, 3 * (a - b) * (3 * a - b) * dividend)
            if holds != exact:
                failures.append(f"verdict mismatch at a={a} b={b} n={n}")
            elif verify_claim(claim, n).holds != exact:
                failures.append(f"full-ledger verdict mismatch at a={a} b={b} n={n}")
            elif not holds:
                failures.append(f"claim unexpectedly fails at a={a} b={b} n={n}")
    return SuiteResult("claims-vs-bigint", checked, tuple(failures))


def suite_congruences_vs_oracle() -> SuiteResult:
    """The S_n (n <= 30) and t_n (n <= 20) congruence checks match exact modular
    arithmetic: one ``claims_hold`` call decides each sequence's two claims at every n."""
    failures = []
    checked = 0
    cases = (
        ("S_n", 30, (s_integrality_claim(), s_congruence_claim()),
         lambda n: 3 * oracle.exact_s(n) % (2 * n + 3)),
        ("t_n", 20, (t_integrality_claim(), t_congruence_claim()),
         lambda n: 21 * oracle.exact_t(n) % (10 * n + 3)),
    )
    for name, n_max, claims, oracle_remainder in cases:
        ns = range(1, n_max + 1)
        verdicts = claims_hold(claims, [0] * n_max + [1] * n_max, [*ns, *ns])[0].reshape(2, -1).all(axis=0)
        for n, holds in zip(ns, verdicts.tolist()):
            checked += 1
            try:
                by_oracle = oracle_remainder(n) == 0
            except IntegrityError as exc:
                failures.append(str(exc))
                continue
            if holds != by_oracle or not holds:
                failures.append(f"{name} congruence mismatch at n={n}")
    return SuiteResult("congruences-vs-bigint", checked, tuple(failures))


def suite_minimal_multiplier() -> SuiteResult:
    """The exact minimal multiplier always divides 3(a-b)(3a-b) (else the oracle
    raises), a <= 5, n <= 5."""
    failures = []
    checked = 0
    for a, b in sweep_pairs(5, 4):
        for n in range(1, 6):
            checked += 1
            try:
                oracle.minimal_multiplier(a, b, n)
            except IntegrityError as exc:
                failures.append(str(exc))
    return SuiteResult("minimal-multiplier", checked, tuple(failures))


def run_all() -> list[SuiteResult]:
    return [
        suite_sieve(),
        suite_legendre_incremental(),
        suite_kummer(),
        suite_claims_vs_oracle(),
        suite_congruences_vs_oracle(),
        suite_minimal_multiplier(),
    ]
