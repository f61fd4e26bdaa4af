"""Cross-validation suites: the valuation engine vs exact big integers.

Each suite pits the valuation verdicts of the claims, the S_n and t_n
congruences and the minimal multiplier against the exact big-integer
arithmetic of ``oracle`` over a desk-scale box and reports any
disagreement.  The suites are what ``binomdiv oracle-check`` runs; the
primitives under them (the sieve, Legendre's formula) are pinned by the
tests against trial division, incremental counting and Kummer's carries.
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


class SuiteResult(NamedTuple):
    name: str
    checked: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


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
            exact = 3 * (a - b) * (3 * a - b) * dividend % divisor == 0
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
        suite_claims_vs_oracle(),
        suite_congruences_vs_oracle(),
        suite_minimal_multiplier(),
    ]
