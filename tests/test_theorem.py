"""Tests for the divisibility theorem machinery: claims, traces, sweeps."""

import concurrent.futures
import dataclasses
import math
import os
import tracemalloc
from fractions import Fraction

import pytest

from binomdiv import oracle, theorem
from binomdiv.errors import IntegrityError
from binomdiv.ratio import (
    LinearForm,
    claim_holds,
    integrality_claim,
    verify_claim,
)
from binomdiv.theorem import (
    ModulusSide,
    ParamTriple,
    TraceBranch,
    conjecture_claim,
    conjecture_ratio,
    run_sweep,
    s_congruence_claim,
    s_integrality_claim,
    sweep_pairs,
    t_congruence_claim,
    t_integrality_claim,
    traces_for_modulus,
)
from binomdiv.valuation import factorize, lemma1_margin, nu_int
from references import (
    certificate_from_rows, exact_conjecture_ratio, modulus_rows, ratio_valuation, s_valuation, t_valuation,
)


def test_param_triple_validation():
    ParamTriple(2, 1, 1)
    with pytest.raises(ValueError):
        ParamTriple(1, 2, 1)
    with pytest.raises(ValueError):
        ParamTriple(2, 2, 1)
    with pytest.raises(ValueError):
        ParamTriple(2, 1, 0)
    with pytest.raises(ValueError):
        ParamTriple(2, 0, 1)


# ---------------------------------------------------------------------------
# claim construction

def test_conjecture_claim_shape_21():
    claim = conjecture_claim(2, 1)
    assert claim.divisor_moduli == (LinearForm(2, 1), LinearForm(2, 3))
    assert claim.multiplier_constants == (3, 1, 5)
    assert claim.divisor_ratio.terms == ((LinearForm(2, 0), 1), (LinearForm(1, 0), -2))


def test_conjecture_claim_shape_31():
    claim = conjecture_claim(3, 1)
    assert claim.multiplier_constants == (3, 2, 8)
    assert claim.divisor_moduli == (LinearForm(2, 1), LinearForm(2, 3))


def test_conjecture_claim_rejects_bad_pairs():
    with pytest.raises(ValueError):
        conjecture_claim(1, 2)
    with pytest.raises(ValueError):
        conjecture_claim(3, 3)
    with pytest.raises(OverflowError):
        conjecture_claim(2**31, 1)


def test_conjecture_ratio_merges_to_central_binomial_for_a_2b():
    # R(2,1,n) = C(4n,2n): the bn and (a-b)n factorials cancel
    r = conjecture_ratio(2, 1)
    assert r.terms == ((LinearForm(4, 0), 1), (LinearForm(2, 0), -2))


# ---------------------------------------------------------------------------
# verification vs the oracle

def test_verify_triple_small_instances():
    cert = verify_claim(conjecture_claim(2, 1), 1)
    assert cert.holds
    assert exact_conjecture_ratio(2, 1, 1) == 6

    cert = verify_claim(conjecture_claim(3, 1), 1)
    assert cert.holds
    # divisor 30, dividend 48*C(6,3)*C(3,1) = 2880, quotient 96
    dividend = 48 * oracle.big_binomial(6, 3) * oracle.big_binomial(3, 1)
    assert dividend // 30 == 96


def test_verify_triple_agrees_with_big_integers_small_box():
    for a, b in sweep_pairs(5, 4):
        for n in range(1, 9):
            cert = verify_claim(conjecture_claim(a, b), n)
            divisor = (
                (2 * b * n + 1) * (2 * b * n + 3) * oracle.big_binomial(2 * b * n, b * n)
            )
            dividend = (
                3 * (a - b) * (3 * a - b)
                * oracle.big_binomial(2 * a * n, a * n)
                * oracle.big_binomial(a * n, b * n)
            )
            assert cert.holds == (dividend % divisor == 0)
            assert cert.holds


def test_conjecture_ratio_integrality_examples():
    assert claim_holds(integrality_claim(conjecture_ratio(2, 1)), 1) == (True, None)
    assert claim_holds(integrality_claim(conjecture_ratio(3, 1)), 1) == (True, None)
    assert exact_conjecture_ratio(3, 1, 1) == 30


# ---------------------------------------------------------------------------
# CRT split

def crt_split(t):
    """One certificate per modulus: the reduced rows of the claim restricted
    to 2bn+1 and to 2bn+3."""
    claim = conjecture_claim(t.a, t.b)
    return [
        certificate_from_rows(t.n, modulus_rows(dataclasses.replace(claim, divisor_moduli=(m,)), t.n))
        for m in claim.divisor_moduli
    ]


def test_crt_split_example_211():
    branch1, branch3 = crt_split(ParamTriple(2, 1, 1))
    assert branch1.holds and branch3.holds
    assert [p for p, _, _ in branch1.entries] == [3]  # 2bn+1 = 3
    assert [p for p, _, _ in branch3.entries] == [5]  # 2bn+3 = 5


def test_crt_split_factors_composite_modulus():
    _, branch3 = crt_split(ParamTriple(3, 1, 9))  # 2bn+3 = 21 = 3*7
    assert [p for p, _, _ in branch3.entries] == [3, 7]


def test_crt_moduli_always_coprime():
    for b in range(1, 6):
        for n in range(1, 40):
            assert math.gcd(2 * b * n + 1, 2 * b * n + 3) == 1


def test_crt_split_equivalent_to_full_verdict():
    for a, b in sweep_pairs(6, 5):
        ratio = conjecture_ratio(a, b)
        for n in range(1, 13):
            t = ParamTriple(a, b, n)
            branch1, branch3 = crt_split(t)
            assert (branch1.holds and branch3.holds) == verify_claim(conjecture_claim(a, b), n).holds
            for cert, modulus in ((branch1, 2 * b * n + 1), (branch3, 2 * b * n + 3)):
                rows = tuple(
                    (
                        p,
                        e,
                        nu_int(3 * (a - b) * (3 * a - b), p) + ratio_valuation(ratio, n, p),
                    )
                    for p, e in factorize(modulus)
                )
                assert cert.entries == rows and cert.n == n
                assert (cert.primes.tolist(), cert.required.tolist(), cert.available.tolist()) == (
                    [p for p, _, _ in rows], [e for _, e, _ in rows], [av for _, _, av in rows]
                )
                failing = [p for p, e, av in rows if av < e]
                assert (cert.holds, cert.witness) == (not failing, min(failing, default=None))
                assert cert.summary().min_margin == min(av - e for _, e, av in rows)


# ---------------------------------------------------------------------------
# proof traces

def test_proof_trace_level_analysis_311():
    trace = theorem.trace(ParamTriple(3, 1, 1), 5, ModulusSide.TWO_BN_PLUS_3)
    assert (trace.alpha, trace.beta, trace.gamma, trace.tau) == (1, 0, 0, 0)
    assert trace.branch is TraceBranch.LEVEL_ANALYSIS
    assert trace.levels == ((1, 1),)
    assert trace.satisfied and not trace.failures


def test_proof_trace_multiplier_covers_211():
    trace = theorem.trace(ParamTriple(2, 1, 1), 5, ModulusSide.TWO_BN_PLUS_3)
    assert trace.gamma == 1  # nu_5(3a-b) = nu_5(5)
    assert trace.tau == 1 >= trace.alpha
    assert trace.branch is TraceBranch.MULTIPLIER_COVERS
    assert trace.satisfied


def test_proof_trace_p3_level_range():
    trace = theorem.trace(ParamTriple(5, 3, 1), 3, ModulusSide.TWO_BN_PLUS_3)  # 2bn+3 = 9
    assert (trace.alpha, trace.beta, trace.gamma, trace.tau) == (2, 0, 1, 1)
    assert trace.branch is TraceBranch.LEVEL_ANALYSIS
    assert trace.levels == ((2, 1),)  # p = 3 lists (tau, alpha] like every prime
    assert trace.satisfied


def test_proof_trace_nine_divides_n():
    trace = theorem.trace(ParamTriple(3, 1, 9), 3, ModulusSide.TWO_BN_PLUS_3)  # 2bn+3 = 21
    assert trace.branch is TraceBranch.MULTIPLIER_COVERS
    assert (trace.alpha, trace.tau) == (1, 1)  # tau >= nu_3(3a-3b) >= 1 covers alpha = 1
    assert trace.levels == () and trace.satisfied


def test_proof_trace_requires_dividing_prime():
    with pytest.raises(ValueError):
        theorem.trace(ParamTriple(3, 1, 1), 7, ModulusSide.TWO_BN_PLUS_3)
    # composite divisors of the modulus are refused, not reported as failed analyses
    with pytest.raises(ValueError, match="p must be a prime, got 9"):
        theorem.trace(ParamTriple(3, 1, 3), 9, ModulusSide.TWO_BN_PLUS_3)  # 2bn+3 = 9
    with pytest.raises(ValueError, match="p must be a prime, got 9"):
        theorem.trace(ParamTriple(3, 1, 4), 9, ModulusSide.TWO_BN_PLUS_1)  # 2bn+1 = 9
    # p < 2 is refused before the modulus is divided by p or p is factored
    for p in (0, -3, 1):
        for side in ModulusSide:
            with pytest.raises(ValueError, match=f"p must be a prime, got {p}$"):
                theorem.trace(ParamTriple(3, 1, 3), p, side)
    # traces_for_modulus traces the primes of its modulus
    traces = traces_for_modulus(ParamTriple(3, 1, 3), ModulusSide.TWO_BN_PLUS_3)
    assert [tr.p for tr in traces] == [3]


def test_proof_trace_refuses_a_prime_past_64_bits():
    """psi_12 = 1287836182261 * 2575672364521 passes ``is_prime``'s 12 bases, so
    a trace of it as a prime of 2bn+3 = psi_12 is refused by ``is_prime``'s
    64-bit rule; a huge triple with a small prime still traces."""
    p = 3317044064679887385961981
    with pytest.raises(ValueError, match="must fit in 64 bits"):
        theorem.trace(ParamTriple(2, 1, (p - 3) // 2), p, ModulusSide.TWO_BN_PLUS_3)
    assert theorem.trace(ParamTriple(2**62, 1, 1), 5, ModulusSide.TWO_BN_PLUS_3).satisfied


def test_proof_trace_reports_every_failed_assertion(monkeypatch):
    """The analysis holds for every (a, b, n, p), so each failure is forced by
    one wrong value: zero level terms on either modulus, p = 3 on 2bn+3
    included, and a modulus 25 that p = 5 shares with n = 5."""
    level_failures = (
        "level 1 term is 0, expected exactly 1",
        "nu_p(R) = 0 < alpha - tau = 1",
        "nu_p(3(a-b)(3a-b)R) = 0 < alpha = 1",
    )
    with monkeypatch.context() as m:
        m.setattr(theorem, "ratio_level_terms", lambda r, n, p: [0])
        for args, failures in (
            ((ParamTriple(3, 1, 1), 5, ModulusSide.TWO_BN_PLUS_3), level_failures),  # 2bn+3 = 5
            ((ParamTriple(2, 1, 3), 7, ModulusSide.TWO_BN_PLUS_1), level_failures),  # 2bn+1 = 7
            # 2bn+1 = 3: the multiplier's 3 still covers alpha = 1
            ((ParamTriple(2, 1, 1), 3, ModulusSide.TWO_BN_PLUS_1), level_failures[:2]),
            # 2bn+3 = 9, tau = nu_3(3a-3b) = 1: level 2 is analysed, the multiplier's 3 covers one
            ((ParamTriple(2, 1, 3), 3, ModulusSide.TWO_BN_PLUS_3), (
                "level 2 term is 0, expected exactly 1",
                "nu_p(R) = 0 < alpha - tau = 1",
                "nu_p(3(a-b)(3a-b)R) = 1 < alpha = 2",
            )),
        ):
            trace = theorem.trace(*args)
            assert trace.branch is TraceBranch.LEVEL_ANALYSIS and not trace.satisfied
            assert trace.failures == failures, args
    monkeypatch.setattr(ModulusSide, "at", lambda side, t: 25)
    trace = theorem.trace(ParamTriple(3, 1, 5), 5, ModulusSide.TWO_BN_PLUS_3)
    assert trace.branch is TraceBranch.LEVEL_ANALYSIS
    assert "gcd(5, n) != 1 although p > 3 divides 2bn+3" in trace.failures


def test_proof_trace_2bn_plus_1_examples():
    """On 2bn+1, tau = beta: the levels in (beta, alpha] are analysed."""
    trace = theorem.trace(ParamTriple(2, 1, 1), 3, ModulusSide.TWO_BN_PLUS_1)  # 2bn+1 = 3
    assert (trace.alpha, trace.beta, trace.gamma, trace.tau) == (1, 0, 0, 0)
    assert trace.branch is TraceBranch.LEVEL_ANALYSIS
    assert trace.levels == ((1, 1),)
    assert trace.satisfied and not trace.failures

    trace = theorem.trace(ParamTriple(4, 1, 1), 3, ModulusSide.TWO_BN_PLUS_1)  # a-b = 3
    assert trace.beta == trace.tau == trace.alpha == 1
    assert trace.branch is TraceBranch.MULTIPLIER_COVERS
    assert trace.levels == () and trace.satisfied

    # 2bn+1 = 9 and 3 | a-b: level 1's term is 0, level 2 is the one analysed
    assert theorem.ratio_level_terms(conjecture_ratio(4, 1), 4, 3)[0] == 0
    trace = theorem.trace(ParamTriple(4, 1, 4), 3, ModulusSide.TWO_BN_PLUS_1)
    assert (trace.alpha, trace.beta, trace.tau) == (2, 1, 1)
    assert trace.branch is TraceBranch.LEVEL_ANALYSIS
    assert trace.levels == ((2, 1),)
    assert trace.satisfied

    with pytest.raises(ValueError):
        theorem.trace(ParamTriple(3, 2, 1), 3, ModulusSide.TWO_BN_PLUS_1)


def test_traces_reconstruct_certificate_requirements():
    """Per-modulus alphas plus the divisor binomial reproduce `required`."""
    for a, b in sweep_pairs(8, 7):
        for n in range(1, 21):
            t = ParamTriple(a, b, n)
            cert = verify_claim(conjecture_claim(a, b), n)
            entries = {p: (req, av) for p, req, av in cert.entries}
            divisor_ratio = conjecture_claim(a, b).divisor_ratio
            alphas: dict[int, int] = {}
            for trace in traces_for_modulus(t, ModulusSide.TWO_BN_PLUS_1):
                assert trace.satisfied
                alphas[trace.p] = alphas.get(trace.p, 0) + trace.alpha
            for trace in traces_for_modulus(t, ModulusSide.TWO_BN_PLUS_3):
                assert trace.satisfied
                alphas[trace.p] = alphas.get(trace.p, 0) + trace.alpha
            for p, alpha in alphas.items():
                required = alpha + ratio_valuation(divisor_ratio, n, p)
                assert entries[p][0] == required


# ---------------------------------------------------------------------------
# the S_n and t_n congruences

def test_s_congruence_small_n_against_oracle():
    for n in range(1, 25):
        assert claim_holds(s_integrality_claim(), n)[0] and claim_holds(s_congruence_claim(), n)[0]
        assert (3 * oracle.exact_s(n)) % (2 * n + 3) == 0


def test_s_congruence_prime_power_modulus():
    # n = 3: modulus 9 = 3^2 exercises the e = 2 path
    assert claim_holds(s_congruence_claim(), 3) == (True, None)
    assert nu_int(3, 3) + s_valuation(3, 3) >= 2
    assert (3 * oracle.exact_s(3)) % 9 == 0


def test_t_congruence_small_n_against_oracle():
    for n in range(1, 18):
        assert claim_holds(t_integrality_claim(), n)[0] and claim_holds(t_congruence_claim(), n)[0]
        assert (21 * oracle.exact_t(n)) % (10 * n + 3) == 0


def test_t_congruence_first_instance_values():
    assert oracle.exact_t(1) == 91
    assert 21 * 91 == 1911 == 13 * 147
    assert t_valuation(1, 13) == 1


def test_congruence_claims_match_per_prime_reference():
    """Weakened multipliers make the claims fail; verdicts follow s/t_valuation."""
    failing = 0
    for multiplier in (1, 3):
        claim = dataclasses.replace(s_congruence_claim(), multiplier_constants=(multiplier,))
        for n in range(1, 201):
            expected = all(
                nu_int(multiplier, q) + s_valuation(n, q) >= e for q, e in factorize(2 * n + 3)
            )
            assert claim_holds(claim, n)[0] == expected, (multiplier, n)
            failing += not expected
    for multiplier in (1, 3, 7, 21):
        claim = dataclasses.replace(t_congruence_claim(), multiplier_constants=(multiplier,))
        for n in range(1, 61):
            expected = all(
                nu_int(multiplier, q) + t_valuation(n, q) >= e for q, e in factorize(10 * n + 3)
            )
            assert claim_holds(claim, n)[0] == expected, (multiplier, n)
            failing += not expected
    assert failing > 0


def test_s_t_integrality_claims_hold():
    for n in range(1, 30):
        assert claim_holds(s_integrality_claim(), n) == (True, None)
        assert claim_holds(t_integrality_claim(), n) == (True, None)


# ---------------------------------------------------------------------------
# minimal multiplier

def test_minimal_multiplier_examples():
    assert oracle.minimal_multiplier(2, 1, 1) == 5  # D=30, B=12
    assert oracle.minimal_multiplier(3, 1, 1) == 1  # D=30, B=60
    with pytest.raises(ValueError):
        oracle.minimal_multiplier(2, 2, 1)


def test_theorem_does_not_use_the_oracle():
    """The verifier must stay independent of the route it is checked against."""
    import binomdiv.theorem

    assert not hasattr(binomdiv.theorem, "oracle")
    assert not hasattr(binomdiv.theorem, "big_binomial")


def test_minimal_multiplier_divides_theorem_constant():
    for a, b in sweep_pairs(5, 4):
        for n in range(1, 6):
            m_min = oracle.minimal_multiplier(a, b, n)
            assert (3 * (a - b) * (3 * a - b)) % m_min == 0


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_pairs_enumeration():
    assert sweep_pairs(3, 2) == [(2, 1), (3, 1), (3, 2)]
    assert sweep_pairs(1, 1) == []
    assert len(sweep_pairs(25, 24)) == 300
    for a_max in range(1, 41):
        for b_max in range(1, 41):
            reference = [
                (a, b) for a in range(2, a_max + 1) for b in range(1, a) if b <= b_max
            ]
            assert sweep_pairs(a_max, b_max) == reference, (a_max, b_max)
    # the closed form needs no enumeration: the last pair of a 10^9 x 10^4 box
    last = theorem._pair_count(10**9, 10**4) - 1
    assert theorem._pair(last, 10**4) == (10**9, 10**4)


def test_run_sweep_small_box():
    report = run_sweep(4, 3, 6)
    assert report.checked == len(sweep_pairs(4, 3)) * 6
    assert report.violations == ()


def test_run_sweep_empty_box():
    report = run_sweep(1, 1, 10)
    assert report.checked == 0
    assert report.violations == ()


def test_run_sweep_parallel_matches_serial():
    serial = run_sweep(5, 4, 8, jobs=1)
    parallel = run_sweep(5, 4, 8, jobs=2)
    assert serial == parallel


@pytest.mark.parametrize("sample", [None, 700])
def test_run_sweep_reports_do_not_depend_on_jobs_or_block(monkeypatch, sample):
    """Equal reports for jobs 1 and 2, with blocks of 2^15 and of 7 indices."""
    reports = []
    for block in (theorem._SWEEP_BLOCK, 7):
        monkeypatch.setattr(theorem, "_SWEEP_BLOCK", block)
        reports += [run_sweep(9, 8, 30, jobs=jobs, sample=sample, seed=4) for jobs in (1, 2)]
    assert all(r == reports[0] for r in reports)
    assert reports[0].checked == (sample or len(sweep_pairs(9, 8)) * 30)


def test_run_sweep_reports_the_violations_of_a_weakened_claim(monkeypatch):
    """Without its multiplier the claim fails; the sweep reports exactly the
    rows that per-row ``claim_holds`` rejects, at any block size."""
    original = theorem.conjecture_claim

    def weakened(a, b):
        return dataclasses.replace(original(a, b), multiplier_constants=())

    monkeypatch.setattr(theorem, "conjecture_claim", weakened)
    expected = []
    for a, b in sweep_pairs(6, 5):
        for n in range(1, 41):
            holds, witness = claim_holds(weakened(a, b), n)
            if not holds:
                expected.append((ParamTriple(a, b, n), witness))
    assert len(expected) > 50
    for block in (1 << 15, 7, 1):
        monkeypatch.setattr(theorem, "_SWEEP_BLOCK", block)
        assert run_sweep(6, 5, 40).violations == tuple(expected)
        sampled = run_sweep(6, 5, 40, sample=300, seed=9).violations
        assert sampled and set(sampled) <= set(expected)


def test_run_sweep_sampled_deterministic():
    first = run_sweep(6, 5, 10, sample=25, seed=123)
    second = run_sweep(6, 5, 10, sample=25, seed=123)
    assert first.checked == second.checked == 25
    assert first.violations == second.violations == ()
    capped = run_sweep(3, 2, 2, sample=10**6, seed=1)
    assert capped.checked == len(sweep_pairs(3, 2)) * 2


def test_run_sweep_pool_is_capped_at_the_payload_count(monkeypatch):
    """The pool never asks for more workers than it has payloads, nor than
    the process has CPUs (three here), and the box is cut into four slices
    per worker, not per job: 30 triples in slices of 3, 5 samples in 1.

    An in-process stand-in for the pool records ``max_workers`` and maps
    serially, so no worker process is started.
    """
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, payloads):
            payloads = list(payloads)
            seen.append((self.max_workers, len(payloads)))
            return map(fn, payloads)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    for kwargs in ({}, {"sample": 5, "seed": 3}):
        serial = run_sweep(3, 2, 10, jobs=1, **kwargs)
        pooled = run_sweep(3, 2, 10, jobs=500, **kwargs)
        assert pooled == serial
    assert seen == [(3, 10), (3, 5)]
    monkeypatch.delattr(os, "sched_getaffinity")  # where it is missing, os.cpu_count() counts
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert run_sweep(3, 2, 10, jobs=500) == run_sweep(3, 2, 10, jobs=1)
    assert seen[2:] == [(2, 8)]


def test_run_sweep_validates_arguments():
    with pytest.raises(ValueError):
        run_sweep(0, 1, 1)
    with pytest.raises(ValueError):
        run_sweep(2, 1, 1, jobs=0)


def test_run_sweep_checks_the_box_corner_before_building_pairs(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a triple was checked in a box past the 64-bit limit")

    monkeypatch.setattr(theorem, "_sweep_chunk", forbidden)
    with pytest.raises(OverflowError, match="would not fit in 64 bits"):
        run_sweep(10**9, 1, 2306000000)  # 4an >= 2^63 at the corner (a_max, 1, n_max)


def test_run_sweep_builds_no_pair_list(monkeypatch):
    """Payloads of a 10^6-pair box are index ranges: no per-pair memory."""
    monkeypatch.setattr(theorem, "_sweep_chunk", lambda job: [])
    tracemalloc.start()
    try:
        run_sweep(10**6 + 1, 1, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} bytes"


def test_run_sweep_of_the_desk_box_stays_under_3_mib():
    """The 30,000 triples of (25, 24, 100) in one block: the per-claim tables are
    built once per call and the verdict table is cut in slices of 2^10 rows
    (8.5 MiB with every table rebuilt per 2^13-row slice)."""
    tracemalloc.start()
    try:
        report = run_sweep(25, 24, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.checked == 30000 and not report.violations
    assert peak < 3 << 20, f"peak {peak} bytes"


# ---------------------------------------------------------------------------
# the window level rule from Lemma 1 (the level laws of both moduli run in acceptance)

def test_2bn_plus_delta_levels_follow_lemma1_margin():
    """Lemma 1's closed form on exact rationals, a route that shares no code
    with ``ratio_level_terms``, pins the level rule of 2bn+delta for delta in
    {1, 3, 5}, with tau = max over odd d <= delta of nu_p(delta*a - d*b).  For
    p^alpha || 2bn+delta and P = p^i, i <= alpha: at p > delta a level is zero
    exactly when d = (-2an) mod P is odd and <= delta, and then P divides
    delta*a - d*b and no other window form; at every p, p = 3 on 2bn+3 and
    2bn+5 included, zero levels are <= tau; and for delta in {1, 3} a trace
    lists exactly the levels (tau, alpha], each equal to 1."""
    sides = {side.delta: side for side in ModulusSide}
    levels = zeros = 0
    for a, b in sweep_pairs(12, 11):
        for n in range(1, 301):
            t = ParamTriple(a, b, n)
            for delta in (1, 3, 5):
                for p, alpha in factorize(2 * b * n + delta):
                    tau = max(nu_int(delta * a - d * b, p) for d in range(1, delta + 1, 2))
                    terms = {
                        i: lemma1_margin(Fraction(a * n, p**i), Fraction(b * n, p**i)) for i in range(1, alpha + 1)
                    }
                    for i, term in terms.items() if p > delta else ():
                        d = -2 * a * n % p**i
                        forms = [e for e in range(1, delta + 1, 2) if (delta * a - e * b) % p**i == 0]
                        assert (term == 0) == (d % 2 == 1 and d <= delta), (t, delta, p, i)
                        assert forms == [d] * (term == 0), (t, delta, p, i)
                    assert all(i <= tau for i, term in terms.items() if term == 0), (t, delta, p)
                    zeros += sum(term == 0 for term in terms.values())
                    if delta in sides:
                        trace = theorem.trace(t, p, sides[delta])
                        assert trace.tau == tau, (t, delta, p)
                        assert trace.levels == tuple((i, terms[i]) for i in range(tau + 1, alpha + 1)), (t, delta, p)
                        assert all(term == 1 for _, term in trace.levels), (t, delta, p)
                    levels += alpha
    assert (levels, zeros) == (124930, 27179)
