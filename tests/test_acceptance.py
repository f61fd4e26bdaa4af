"""Acceptance suite: the package's exit criteria, one test per criterion.

Every tolerance here is exact equality or a hard runtime bound; the
statements under test are theorems, so the only acceptable violation
count is zero.  Run with ``pytest -s tests/test_acceptance.py`` to see
one PASS line per criterion.
"""

import json
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from binomdiv import oracle, theorem
from binomdiv.ratio import (
    LinearForm,
    claim_holds,
    claims_hold,
    integrality_claim,
    verify_claim,
)
from binomdiv.theorem import (
    ModulusSide,
    ParamTriple,
    TraceBranch,
    conjecture_claim,
    conjecture_ratio,
    s_congruence_claim,
    s_integrality_claim,
    sweep_pairs,
    t_congruence_claim,
    t_integrality_claim,
)
from binomdiv.valuation import (
    factorize,
    lemma_fuzz,
    nu_factorial_over_primes,
    nu_int,
    primes_upto,
)
from references import exact_conjecture_ratio, kummer_binomial_valuation, modulus_rows, nu_factorial, s_valuation

SWEEP_A_MAX, SWEEP_B_MAX, SWEEP_N_MAX = 25, 24, 100


def _report(label: str, detail: str) -> None:
    print(f"\nACCEPTANCE {label}: PASS ({detail})")


def _failing_ns(claims, n_max: int) -> list[int]:
    """The n <= n_max at which some claim fails, by one ``claims_hold`` call."""
    ns = np.tile(np.arange(1, n_max + 1), len(claims))
    holds, _ = claims_hold(claims, np.repeat(np.arange(len(claims)), n_max), ns)
    return sorted(set(ns[~holds].tolist()))


def _sweep_box():
    for a, b in sweep_pairs(SWEEP_A_MAX, SWEEP_B_MAX):
        for n in range(1, SWEEP_N_MAX + 1):
            yield a, b, n


def test_01_theorem_sweep_full_box(tmp_path):
    """sweep --a-max 25 --b-max 24 --n-max 100 reports zero violations."""
    out_file = tmp_path / "sweep.json"
    started = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, "-m", "binomdiv",
            "sweep", "--a-max", str(SWEEP_A_MAX), "--b-max", str(SWEEP_B_MAX),
            "--n-max", str(SWEEP_N_MAX), "--jobs", "4",
            "--format", "json", "--out", str(out_file),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    wall = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out_file.read_text())
    assert doc["summary"]["violations"] == 0
    assert doc["summary"]["checked"] == 300 * SWEEP_N_MAX
    assert doc["results"] == []
    assert wall < 300, f"sweep took {wall:.1f}s, budget is 300s"
    _report("1 theorem sweep", f"30000 triples, 0 violations, {wall:.1f}s with 4 workers")


def test_02_oracle_equivalence_desk_box():
    """Valuation verdict == exact big-integer divisibility, a <= 8, n <= 40."""
    checked = 0
    for a, b in sweep_pairs(8, 7):
        claim = conjecture_claim(a, b)
        for n in range(1, 41):
            holds, _ = claim_holds(claim, n)
            divisor = (
                (2 * b * n + 1) * (2 * b * n + 3) * oracle.big_binomial(2 * b * n, b * n)
            )
            dividend = (
                3 * (a - b) * (3 * a - b)
                * oracle.big_binomial(2 * a * n, a * n)
                * oracle.big_binomial(a * n, b * n)
            )
            quotient, remainder = divmod(dividend, divisor)
            assert holds == (remainder == 0)
            assert holds and remainder == 0 and quotient >= 1, (a, b, n)
            checked += 1
    assert checked == 28 * 40
    _report("2 oracle equivalence", f"{checked} instances, verdicts match exactly")


def test_03_core_ratio_integrality():
    """R(a,b,n) integral on the full sweep box; exact division for a <= 8."""
    pairs = sweep_pairs(SWEEP_A_MAX, SWEEP_B_MAX)
    claims = [integrality_claim(conjecture_ratio(a, b)) for a, b in pairs]
    which = np.repeat(np.arange(len(pairs)), SWEEP_N_MAX)
    ns = np.tile(np.arange(1, SWEEP_N_MAX + 1), len(pairs))
    holds, witness = claims_hold(claims, which, ns)
    assert holds.all() and not witness.any(), [(*pairs[which[i]], ns[i]) for i in np.flatnonzero(~holds)]
    checked = holds.size
    assert checked == len(list(_sweep_box()))
    for a, b in ((2, 1), (SWEEP_A_MAX, 1), (SWEEP_A_MAX, SWEEP_B_MAX)):  # the box corners
        for n in (1, SWEEP_N_MAX):
            assert claim_holds(integrality_claim(conjecture_ratio(a, b)), n) == (True, None), (a, b, n)
    oracle_checked = 0
    for a, b in sweep_pairs(8, 7):
        for n in range(1, 41):
            exact_conjecture_ratio(a, b, n)  # IntegrityError if inexact
            oracle_checked += 1
    _report(
        "3 ratio integrality",
        f"{checked} valuation checks, {oracle_checked} exact divisions, 0 failures",
    )


def test_04_s_congruence_regression():
    """3*S_n == 0 (mod 2n+3) for n <= 300; oracle-confirmed for n <= 60."""
    assert _failing_ns((s_integrality_claim(), s_congruence_claim()), 300) == []
    for n in range(1, 61):
        assert (3 * oracle.exact_s(n)) % (2 * n + 3) == 0, n
    _report("4 S_n congruence", "n <= 300 by valuations, n <= 60 by big integers")


def test_05_t_congruence_regression():
    """21*t_n == 0 (mod 10n+3) for n <= 150; oracle-confirmed for n <= 40."""
    assert _failing_ns((t_integrality_claim(), t_congruence_claim()), 150) == []
    for n in range(1, 41):
        assert (21 * oracle.exact_t(n)) % (10 * n + 3) == 0, n
    _report("5 t_n congruence", "n <= 150 by valuations, n <= 40 by big integers")


def test_06_lemma_fuzz_million_samples():
    """10^6 seeded rational pairs, zero floor-inequality violations, < 10 s."""
    started = time.perf_counter()
    violations = lemma_fuzz(1_000_000, 1_000_000, seed=42)
    wall = time.perf_counter() - started
    assert violations == ()
    assert wall < 10, f"fuzz took {wall:.1f}s, budget is 10s"
    _report("6 lemma fuzz", f"10^6 samples, 0 violations, {wall:.2f}s")


def test_07_legendre_kummer_direct_agreement():
    """Legendre == incremental counting (m <= 3000, p <= 100);
    Kummer == Legendre differences (m <= 400, p in {2,3,5,7,11})."""
    legendre_checks = 0
    for p in primes_upto(100).tolist():
        running = 0
        for m in range(1, 3001):
            running += nu_int(m, p)
            assert nu_factorial(m, p) == running, (m, p)
            legendre_checks += 1
    kummer_checks = 0
    for p in (2, 3, 5, 7, 11):
        table = [nu_factorial(m, p) for m in range(401)]
        for m in range(401):
            for k in range(m + 1):
                expected = table[m] - table[k] - table[m - k]
                assert kummer_binomial_valuation(m, k, p) == expected, (m, k, p)
                kummer_checks += 1
    _report(
        "7 valuation agreement",
        f"{legendre_checks} Legendre and {kummer_checks} Kummer checks, exact",
    )


def test_08_proof_trace_level_laws():
    """Level terms over the full sweep box obey one case-analysis law on both
    moduli 2bn+delta: tau = max over odd d <= delta of nu_p(delta*a - d*b), and
    the levels (tau, alpha] are listed, each equal to 1."""
    traces = 0
    for a, b, n in _sweep_box():
        t = ParamTriple(a, b, n)
        if n % 9 == 0:
            assert nu_int(2 * b * n + 3, 3) == 1, (a, b, n)
        for side in ModulusSide:
            delta = side.delta
            for p, alpha in factorize(side.at(t)):
                trace = theorem.trace(t, p, side)
                traces += 1
                assert trace.satisfied, (a, b, n, p, side, trace.failures)
                assert trace.alpha == alpha
                tau = max(nu_int(delta * a - d * b, p) for d in range(1, delta + 1, 2))
                assert trace.tau == tau
                assert [i for i, _ in trace.levels] == list(range(tau + 1, alpha + 1))
                assert all(term == 1 for _, term in trace.levels), (a, b, n, p, side)
                assert (trace.branch is TraceBranch.MULTIPLIER_COVERS) == (alpha <= tau)
                if p == 3 and n % 9 == 0:  # alpha = 1 <= nu_3(3a-3b)
                    assert trace.branch is TraceBranch.MULTIPLIER_COVERS, (a, b, n)
    _report("8 level-term laws", f"{traces} traces on both moduli, every constrained level equals 1")


def test_09_s_congruence_follows_from_theorem():
    """At (a,b) = (3,1) the 2n+3 certificate implies the S_n congruence."""
    two_bn_plus_3 = replace(conjecture_claim(3, 1), divisor_moduli=(LinearForm(2, 3),))
    for n in range(1, 101):
        rows = list(modulus_rows(two_bn_plus_3, n))
        assert all(available >= required for _, required, available in rows)
        for q, required, available in rows:
            # available = nu_q(48 R(3,1,n)); R = 2(2n+1) S_n and q is odd,
            # coprime to 2n+1, so this equals nu_q(3 S_n) exactly.
            s_side = nu_int(3, q) + s_valuation(n, q)
            assert s_side == available, (n, q)
            assert s_side >= required, (n, q)
    assert _failing_ns((s_integrality_claim(), s_congruence_claim()), 100) == []
    _report("9 congruence from theorem", "modulus-2n+3 certificates imply it, n <= 100")


def test_10_large_n_performance(monkeypatch, tmp_path):
    """verify a=7 b=5 n=10^6: Holds in < 10 s, word-scale arithmetic only."""

    def _forbidden(*_args, **_kwargs):
        raise AssertionError("big-integer oracle invoked on the verification path")

    monkeypatch.setattr(oracle, "big_binomial", _forbidden)
    started = time.perf_counter()
    cert = verify_claim(conjecture_claim(7, 5), 1_000_000)
    wall = time.perf_counter() - started
    assert cert.holds
    assert wall < 10, f"verification took {wall:.1f}s, budget is 10s"
    assert all(
        0 < p < 2**63 and 0 <= req < 2**63 and 0 <= av < 2**63
        for p, req, av in cert.entries
    )
    # the batch engine works in int64 throughout
    assert nu_factorial_over_primes(10**7, primes_upto(100)).dtype.name == "int64"
    monkeypatch.undo()

    cli_started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "binomdiv", "verify", "--a", "7", "--b", "5", "--n", "1000000"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    cli_wall = time.perf_counter() - cli_started
    assert proc.returncode == 0, proc.stderr
    assert "verdict: Holds" in proc.stdout
    assert cli_wall < 10, f"CLI run took {cli_wall:.1f}s, budget is 10s"
    _report(
        "10 large-n performance",
        f"library {wall:.2f}s, CLI {cli_wall:.2f}s, verdict Holds, no bigint allocations",
    )


def test_11_minimal_multiplier_sharpness():
    """M_min | 3(a-b)(3a-b) for every 1 <= b < a <= 6, n <= 10."""
    checked = 0
    for a, b in sweep_pairs(6, 5):
        for n in range(1, 11):
            m_min = oracle.minimal_multiplier(a, b, n)
            assert (3 * (a - b) * (3 * a - b)) % m_min == 0, (a, b, n)
            checked += 1
    assert checked == 15 * 10
    _report("11 minimal multiplier", f"{checked} instances, all divide 3(a-b)(3a-b)")
