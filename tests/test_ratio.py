"""Tests for factorial-ratio symbolics, valuations and claim certificates."""

import dataclasses
import math
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from binomdiv import ratio as ratio_module
from binomdiv import valuation as valuation_module
from binomdiv.cli import main
from binomdiv.errors import ResourceLimitError
from binomdiv.oracle import big_binomial
from binomdiv.ratio import (
    LANDAU_MAX_BREAKPOINTS,
    Certificate,
    DivisibilityClaim,
    FactorialRatio,
    LinearForm,
    binomial_ratio,
    claim_holds,
    claims_hold,
    counted_ledger,
    integral_for_all_n,
    integrality_claim,
    ratio_level_terms,
    ratio_valuation_over_primes,
    verify_claim,
)
from binomdiv.theorem import (
    conjecture_claim,
    conjecture_ratio,
    s_congruence_claim,
    s_integrality_claim,
    sweep_pairs,
    t_congruence_claim,
    t_integrality_claim,
)
from binomdiv.valuation import primes_upto
from references import (
    certificate_from_rows, modulus_rows, ratio_valuation, s_binomial_ratio, t_binomial_ratio,
)


def exact_ratio_value(r: FactorialRatio, n: int) -> Fraction:
    """Independent oracle: multiply the factorials out exactly."""
    value = Fraction(1)
    for form, e in r.terms:
        value *= Fraction(math.factorial(form.evaluate(n))) ** e
    return value


def form(c, d=0):
    return LinearForm(c, d)


CENTRAL = binomial_ratio(form(2), form(1))  # C(2n, n)

# t_n's claims in their offset form, t_n = C(15n,5n)C(5n-1,n-1) / ((10n+1)C(3n,n)):
# no Landau certificate covers the (5n-1)! and (n-1)! terms, so they take the full ledger
OFFSET_T_INTEGRALITY = DivisibilityClaim(
    (form(10, 1),),
    binomial_ratio(form(3), form(1)),
    (),
    binomial_ratio(form(15), form(5)) * binomial_ratio(form(5, -1), form(1, -1)),
)
OFFSET_T_CONGRUENCE = dataclasses.replace(
    OFFSET_T_INTEGRALITY, divisor_moduli=(form(10, 1), form(10, 3)), multiplier_constants=(21,)
)


# ---------------------------------------------------------------------------
# forms

def test_linear_form_rendering():
    assert str(form(0, 5)) == "5"
    assert str(form(1, 0)) == "n"
    assert str(form(1, -1)) == "n-1"
    assert str(form(2, 3)) == "2n+3"
    assert str(form(-1, 2)) == "-n+2"
    assert str(form(15)) == "15n"


def test_linear_form_evaluate_and_overflow_guard():
    assert form(2, 3).evaluate(10) == 23
    assert form(2, 0).evaluate(2**62) == 2**63  # exact; the claim prologue checks 64 bits
    with pytest.raises(OverflowError, match=r"\(2n\) at n=4611686018427387904 does not fit"):
        claim_holds(DivisibilityClaim((form(2),), CENTRAL, (), CENTRAL), 2**62)


# ---------------------------------------------------------------------------
# ratio construction

def test_binomial_ratio_merges_duplicate_bottoms():
    assert CENTRAL.terms == ((form(2), 1), (form(1), -2))
    six_three = binomial_ratio(form(6), form(3))
    assert six_three.terms == ((form(6), 1), (form(3), -2))


def test_binomial_ratio_with_offsets():
    r = binomial_ratio(form(5, -1), form(1, -1))
    assert r.terms == ((form(5, -1), 1), (form(4), -1), (form(1, -1), -1))
    assert str(r) == "(5n-1)!^1 (4n)!^-1 (n-1)!^-1"


def test_from_terms_merges_and_drops_zero():
    r = FactorialRatio.from_terms([(form(3), 2), (form(3), -2), (form(1), 1)])
    assert r.terms == ((form(1), 1),)
    assert str(FactorialRatio.from_terms([])) == "1"


def test_direct_construction_validates_canonical_form():
    with pytest.raises(ValueError):
        FactorialRatio(((form(2), 0),))
    with pytest.raises(ValueError):
        FactorialRatio(((form(1), 1), (form(2), 1)))  # wrong order
    with pytest.raises(ValueError):
        FactorialRatio(((form(2), 1), (form(2), 1)))  # duplicate


def test_multiplication_and_division():
    r = CENTRAL * (FactorialRatio() / CENTRAL)
    assert r == FactorialRatio.from_terms([])
    assert (CENTRAL / CENTRAL).terms == ()
    product = binomial_ratio(form(4), form(2)) * binomial_ratio(form(2), form(1))
    assert product.terms == ((form(4), 1), (form(2), -1), (form(1), -2))


# ---------------------------------------------------------------------------
# valuations

def conjecture_style_ratio(a, b):
    # (2an)! (bn)! / ((an)! ((a-b)n)! (2bn)!)
    return FactorialRatio.from_terms(
        [
            (form(2 * a), 1),
            (form(b), 1),
            (form(a), -1),
            (form(a - b), -1),
            (form(2 * b), -1),
        ]
    )


def test_ratio_valuation_examples():
    r = conjecture_style_ratio(2, 1)
    assert ratio_valuation(r, 1, 2) == 1  # value 6
    assert ratio_valuation(r, 1, 5) == 0
    assert ratio_valuation(FactorialRatio.from_terms([]), 7, 13) == 0


def test_ratio_valuation_matches_exact_value():
    r = conjecture_style_ratio(3, 1)
    for n in (1, 2, 5):
        value = exact_ratio_value(r, n)
        assert value.denominator == 1
        for p in (2, 3, 5, 7, 11):
            count, m = 0, int(value)
            while m % p == 0:
                m //= p
                count += 1
            assert ratio_valuation(r, n, p) == count


def test_ratio_valuation_negative_argument_names_form():
    r = FactorialRatio.from_terms([(form(1, -2), 1)])
    with pytest.raises(ValueError, match=r"\(n-2\)"):
        ratio_valuation(r, 1, 2)


def test_ratio_valuation_rejects_bad_n():
    with pytest.raises(ValueError):
        ratio_valuation(CENTRAL, 0, 2)


def test_level_terms_sum_to_valuation():
    r = conjecture_style_ratio(5, 2)
    for n in (1, 3, 10):
        for p in (2, 3, 5, 7):
            terms = ratio_level_terms(r, n, p)
            assert sum(terms) == ratio_valuation(r, n, p)
            args = r.arguments(n)
            for i in range(1, len(terms) + 1):
                assert terms[i - 1] == sum(e * (a // p**i) for (_, e), a in zip(r.terms, args))
            # past levels are absent: the list ends where every quotient is 0
            assert max(args) < p ** (len(terms) + 1)
            assert not terms or max(args) >= p ** len(terms)
    with pytest.raises(ValueError, match="p must be a prime"):
        ratio_level_terms(r, 3, 1)  # p = 1 would never run out of levels


def test_valuation_additivity_over_concatenation():
    rng = random.Random(11)
    for _ in range(50):
        r1 = FactorialRatio.from_terms(
            [(form(rng.randint(1, 6)), rng.choice([-2, -1, 1, 2])) for _ in range(3)]
        )
        r2 = FactorialRatio.from_terms(
            [(form(rng.randint(1, 6)), rng.choice([-2, -1, 1, 2])) for _ in range(3)]
        )
        n = rng.randint(1, 30)
        p = rng.choice([2, 3, 5, 7, 11, 13])
        assert ratio_valuation(r1 * r2, n, p) == ratio_valuation(
            r1, n, p
        ) + ratio_valuation(r2, n, p)


def test_vectorized_valuation_matches_scalar():
    r = conjecture_style_ratio(7, 3)
    primes = primes_upto(200)
    for n in (1, 4, 9):
        batch = ratio_valuation_over_primes(r, n, primes).tolist()
        assert batch == [ratio_valuation(r, n, int(p)) for p in primes]


def test_vectorized_valuation_matches_scalar_at_scale():
    """Both sides of the conjecture claim at n ~ 10^6, on 200 seeded primes:
    100 below isqrt of the largest argument (several Legendre levels) and
    100 above it (level 1 only)."""
    claim, n = conjecture_claim(7, 5), 1_000_003
    primes = primes_upto(2 * 5 * n + 3)
    deep = int(np.searchsorted(primes, math.isqrt(2 * 7 * n), side="right"))
    rng = random.Random(17)
    sample = rng.sample(range(deep), 100) + rng.sample(range(deep, primes.size), 100)
    for side in (claim.divisor_ratio, claim.dividend_ratio):
        batch = ratio_valuation_over_primes(side, n, primes)
        assert [int(batch[i]) for i in sample] == [
            ratio_valuation(side, n, int(primes[i])) for i in sample
        ]


def test_vectorized_valuation_overflow_budget():
    huge = FactorialRatio.from_terms([(form(1), 2**40), (form(2), -(2**40))])
    with pytest.raises(OverflowError):
        ratio_valuation_over_primes(huge, 2**22, primes_upto(10))


def scalar_column(r: FactorialRatio, n: int, primes) -> list[int]:
    return [ratio_valuation(r, n, p) for p in np.asarray(primes).tolist()]


def constant_ratio(args) -> FactorialRatio:
    """prod arg!^e over distinct arguments, exponents cycling through 3, -2, 1, -1, 2."""
    return FactorialRatio.from_terms(
        (form(0, a), (3, -2, 1, -1, 2)[i % 5]) for i, a in enumerate(sorted(set(args)))
    )


def split_of(top: int, primes: np.ndarray) -> int:
    """Index of the first prime counted by breakpoints, as the docstring states it."""
    return int(np.searchsorted(primes, max(math.isqrt(top), top // (primes.size + 1)), side="right"))


@pytest.mark.parametrize("a, b", [(7, 5), (1000, 1)])
def test_vectorized_valuation_full_columns_match_scalar(a, b):
    """Every prime up to 2bn+3 at n ~ 10^5, both sides; at (1000, 1) the
    dividend's arguments reach 2000n, far above the largest prime."""
    claim, n = conjecture_claim(a, b), 100_003
    primes = primes_upto(2 * b * n + 3)
    for side in (claim.divisor_ratio, claim.dividend_ratio):
        assert ratio_valuation_over_primes(side, n, primes).tolist() == scalar_column(side, n, primes)


def test_vectorized_valuation_at_the_split_and_prime_squares():
    """Largest arguments p^2 - 1, p^2, p^2 + 1 move the split across p; the
    other arguments sit at the first prime above the split, at squares of the
    primes around it (+-1) and at 0."""
    primes = primes_upto(600)
    for p in primes[:10].tolist():
        for top in (p * p - 1, p * p, p * p + 1):
            split = split_of(top, primes)
            near = primes[max(split - 2, 0) : split + 2].tolist()
            args = [0, top, int(primes[split])]
            args += [q * q + d for q in near for d in (-1, 0, 1) if q * q + d <= top]
            r = constant_ratio(args)
            assert split_of(max(r.arguments(1)), primes) == split
            assert ratio_valuation_over_primes(r, 1, primes).tolist() == scalar_column(r, 1, primes)


def test_vectorized_valuation_on_empty_and_one_prime_arrays():
    r = constant_ratio([0, 1, 2, 3, 4, 9, 10, 100, 101, 10**6])
    empty = ratio_valuation_over_primes(r, 1, np.empty(0, dtype=np.int64))
    assert empty.dtype == np.int64 and empty.shape == (0,)
    for p in (2, 3, 11, 101, 1009, 1000003):
        one = np.array([p], dtype=np.int64)
        assert ratio_valuation_over_primes(r, 1, one).tolist() == scalar_column(r, 1, one)


def test_vectorized_valuation_on_sparse_prime_samples():
    """Few primes and large arguments: A // (size + 1) > isqrt(A) sets the
    split, with sampled primes on both sides of it in most draws."""
    pool = primes_upto(2 * 10**6).tolist()
    rng = random.Random(29)
    counted = 0
    for _ in range(40):
        primes = np.sort(np.array(rng.sample(pool, rng.randint(1, 8)), dtype=np.int64))
        n = rng.randint(10**3, 10**4)
        r = FactorialRatio.from_terms(
            (form(rng.randint(1, 10**3), rng.randint(0, 50)), rng.choice((-3, -1, 1, 2)))
            for _ in range(5)
        )
        top = max(r.arguments(n), default=0)
        assert top // (primes.size + 1) > math.isqrt(top)
        counted += split_of(top, primes) < primes.size
        assert ratio_valuation_over_primes(r, n, primes).tolist() == scalar_column(r, n, primes)
    assert counted >= 20


def test_vectorized_valuation_work_is_bounded_by_the_array_size():
    """Two primes and an argument near 10^10: without the size + 1 cap on the
    breakpoints, 100003 alone would get 10^5 of them.  A refused budget
    allocates no column."""
    primes = np.array([100003, 1000000007], dtype=np.int64)
    r = FactorialRatio.from_terms([(form(10**4), 1), (form(1), -1)])
    n = 10**6 + 7
    huge = FactorialRatio.from_terms([(form(1), 2**40), (form(2), -(2**40))])
    many = primes_upto(10**6)  # a column over them is 628 KB
    tracemalloc.start()
    try:
        column = ratio_valuation_over_primes(r, n, primes)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(OverflowError):
            ratio_valuation_over_primes(huge, 2**22, many)
        refused_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert column.tolist() == scalar_column(r, n, primes)
    assert peak < 1 << 20
    assert refused_peak < 64 << 10


# ---------------------------------------------------------------------------
# integrality

def test_is_integral_examples():
    assert claim_holds(integrality_claim(conjecture_style_ratio(3, 1)), 2) == (True, None)
    chebyshev = FactorialRatio.from_terms(
        [(form(30), 1), (form(1), 1), (form(15), -1), (form(10), -1), (form(6), -1)]
    )
    assert claim_holds(integrality_claim(chebyshev), 1)[0]
    inverse_central = FactorialRatio.from_terms([(form(1), 2), (form(2), -1)])
    assert claim_holds(integrality_claim(inverse_central), 1) == (False, 2)


def test_is_integral_agrees_with_exact_arithmetic():
    def check(r, n):
        result = claim_holds(integrality_claim(r), n)
        value = exact_ratio_value(r, n)
        assert result[0] == (value.denominator == 1)
        negative = [
            int(p) for p in primes_upto(max(r.arguments(n), default=0))
            if ratio_valuation(r, n, int(p)) < 0
        ]
        assert result[1] == (negative[0] if negative else None)
        if not result[0]:
            assert value.denominator % result[1] == 0

    rng = random.Random(5)
    for _ in range(80):
        r = FactorialRatio.from_terms(
            [(form(rng.randint(1, 8)), rng.choice([-1, 1])) for _ in range(4)]
        )
        check(r, rng.randint(1, 12))
    # offset forms c*n + d with d >= -c, so every argument is >= 0 at n >= 1
    for _ in range(80):
        terms = []
        for _ in range(rng.randint(2, 5)):
            c = rng.randint(1, 6)
            terms.append((form(c, rng.randint(-c, 4)), rng.choice([-2, -1, 1, 2])))
        check(FactorialRatio.from_terms(terms), rng.randint(1, 10))
    # unbalanced coefficient sums, both heavier numerators and heavier denominators
    for _ in range(60):
        tops = [rng.randint(1, 8) for _ in range(rng.randint(1, 3))]
        bottoms = [rng.randint(1, 8) for _ in range(rng.randint(1, 3))]
        if sum(tops) == sum(bottoms):
            tops.append(1)
        r = FactorialRatio.from_terms(
            [(form(c), 1) for c in tops] + [(form(c), -1) for c in bottoms]
        )
        check(r, rng.randint(1, 12))


def test_landau_certificate_covers_the_papers_ratios():
    assert all(integral_for_all_n(conjecture_ratio(a, b)) for a, b in sweep_pairs(25, 24))
    chebyshev = FactorialRatio.from_terms(
        [(form(30), 1), (form(1), 1), (form(15), -1), (form(10), -1), (form(6), -1)]
    )
    assert integral_for_all_n(chebyshev)
    assert integral_for_all_n(s_binomial_ratio())
    # L = (15n)!(2n)!/((10n)!(4n)!(3n)!), the core of both t_n claims
    assert t_integrality_claim().core == t_congruence_claim().core == FactorialRatio.from_terms(
        [(form(15), 1), (form(2), 1), (form(10), -1), (form(4), -1), (form(3), -1)]
    )
    assert integral_for_all_n(t_integrality_claim().core)


def test_landau_certificate_refuses_what_it_cannot_prove():
    inverse_central = FactorialRatio.from_terms([(form(1), 2), (form(2), -1)])
    assert not integral_for_all_n(inverse_central)  # f(1/2) = -1
    # (2n)!/n! has surplus s = 1 and is certified; n!/(2n)! has s = -1 and is not
    assert integral_for_all_n(FactorialRatio.from_terms([(form(2), 1), (form(1), -1)]))
    assert not integral_for_all_n(FactorialRatio.from_terms([(form(1), 1), (form(2), -1)]))
    assert not integral_for_all_n(OFFSET_T_INTEGRALITY.core)  # offsets
    # C(2mn, mn) with odd m past the cap is integral, but not R(m, m/2), and its
    # breakpoint array is too long to try
    m = LANDAU_MAX_BREAKPOINTS + 1
    wide = binomial_ratio(form(2 * m), form(m))
    assert not integral_for_all_n(wide)
    assert claim_holds(integrality_claim(wide), 1) == (True, None)
    # the cap is on the largest negative-exponent coefficient, max(a, 2b) for the
    # core, but R(a, b) is matched by its shape before it, past the cap too
    assert integral_for_all_n(conjecture_ratio(LANDAU_MAX_BREAKPOINTS, 1))
    assert integral_for_all_n(conjecture_ratio(LANDAU_MAX_BREAKPOINTS + 1, 1))
    # c*k would not fit in int64: "not certified", never an exception
    huge = FactorialRatio.from_terms([(form(10**20), 1), (form(1), -1)])
    assert integral_for_all_n(huge) is False
    assert main(["integrality", "--num", str(10**20 - 1), "--den", "1", "--n-max", "3"]) == 2


def test_landau_certificate_is_sound():
    """Every certified ratio, balanced or with surplus, is an integer at
    n <= 20 by exact factorial quotients."""
    rng = random.Random(7)
    certified = {"balanced": 0, "surplus": 0}
    for i in range(600):
        tops = [rng.randint(1, 9) for _ in range(rng.randint(1, 3))]
        bottoms = [rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
        if i % 2 == 0:  # balanced draw: s = 0
            bottoms[-1] += sum(tops) - sum(bottoms)
            if bottoms[-1] < 1:
                continue
        r = FactorialRatio.from_terms(
            [(form(c), 1) for c in tops] + [(form(c), -1) for c in bottoms]
        )
        if integral_for_all_n(r):
            certified["surplus" if sum(tops) > sum(bottoms) else "balanced"] += 1
            assert all(exact_ratio_value(r, n).denominator == 1 for n in range(1, 21)), r
    assert min(certified.values()) >= 20, certified


def landau_by_every_breakpoint(r: FactorialRatio) -> bool:
    """Reference: f(k/c) >= 0 at every breakpoint of every term, in Python ints."""
    if any(f.offset != 0 or f.coeff < 0 for f, _ in r.terms):
        return False
    terms = [(f.coeff, e) for f, e in r.terms if f.coeff > 0]
    if sum(e * c for c, e in terms) < 0:
        return False
    return all(
        sum(e * (c * k // den) for c, e in terms) >= 0
        for den in {c for c, _ in terms}
        for k in range(den)
    )


def test_landau_certificate_matches_every_breakpoint_reference():
    """``integral_for_all_n`` checks only the down-steps, with numpy; the
    reference checks every breakpoint of every term.  Exponents +-1 and +-2,
    balanced (s = 0) and unbalanced draws alike."""
    rng = random.Random(13)
    verdicts = {True: 0, False: 0}
    surplus = 0
    for i in range(1200):
        pairs = [(rng.randint(1, 12), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(1, 5))]
        s = sum(c * e for c, e in pairs)
        if i % 2 == 0 and s:  # balanced draw
            pairs.append((abs(s), -1 if s > 0 else 1))
        r = FactorialRatio.from_terms([(form(c), e) for c, e in pairs])
        certified = integral_for_all_n(r)
        assert certified == landau_by_every_breakpoint(r), r
        verdicts[certified] += 1
        surplus += certified and sum(f.coeff * e for f, e in r.terms) > 0
    assert min(verdicts.values()) >= 200 and surplus >= 50, (verdicts, surplus)


def landau_routes(monkeypatch, ratios):
    """Per ratio, ``integral_for_all_n`` with the numeric pass cut off (a cap of
    0, so only R's shape can certify) and with the shape test bypassed (no
    rebuilt R matches), each from a cleared cache."""
    verdicts = []
    for name, value in ("LANDAU_MAX_BREAKPOINTS", 0), ("_r_sides", lambda a, b: (FactorialRatio(),) * 2):
        with monkeypatch.context() as patch:
            patch.setattr(ratio_module, name, value)
            integral_for_all_n.cache_clear()
            verdicts.append([integral_for_all_n(r) for r in ratios])
    integral_for_all_n.cache_clear()
    return list(zip(*verdicts))


def test_landau_shape_route_agrees_with_the_numeric_pass(monkeypatch):
    """Every R(a, b) core is certified by its shape and by the numeric pass:
    all pairs with a <= 100 (a = 2b and a = 3b among them, where terms merge),
    300 seeded pairs with a <= 300 and 10 with 2^19 < a <= 2^20 and 2b <= 2^20.
    Past the cap only the shape certifies: 10 seeded pairs and (10^9, 7)."""
    rng = random.Random(36)
    pairs = sweep_pairs(100, 99) + [(a, rng.randrange(1, a)) for a in (rng.randint(101, 300) for _ in range(300))]
    pairs += [(rng.randint(2**19 + 1, 2**20), rng.randint(1, 2**19)) for _ in range(10)]
    assert {(2, 1), (4, 2), (6, 2), (99, 33)} <= set(pairs)
    cores = [conjecture_claim(a, b).core for a, b in pairs]
    assert all(integral_for_all_n(r) for r in cores)
    assert landau_routes(monkeypatch, cores) == [(True, True)] * len(pairs)
    wide = [(rng.randint(2**20 + 1, 10**9), 0) for _ in range(10)] + [(10**9, 7)]  # 9a^2 < 2^63
    wide = [(a, b or rng.randrange(1, a)) for a, b in wide]
    cores = [conjecture_claim(a, b).core for a, b in wide]
    assert all(integral_for_all_n(r) for r in cores)
    assert landau_routes(monkeypatch, cores) == [(True, False)] * len(wide)


def test_landau_shape_route_refuses_near_misses(monkeypatch):
    """R with one exponent, one coefficient or one offset changed, and C(2mn, mn)
    at odd m (R(m, m/2) at even m), never take the shape route, and each verdict
    is the numeric pass's."""
    def changed(r, i, exponent=0, coeff=0, offset=0):
        (f, e), rest = r.terms[i], r.terms[:i] + r.terms[i + 1 :]
        return FactorialRatio.from_terms(rest + ((form(f.coeff + coeff, f.offset + offset), e + exponent),))

    near = []
    for a, b in sweep_pairs(20, 19):
        r = conjecture_ratio(a, b)
        for i in range(len(r.terms)):
            near += [changed(r, i, exponent=1), changed(r, i, exponent=-1), changed(r, i, coeff=1),
                     changed(r, i, offset=1)]
    near += [binomial_ratio(form(2 * m), form(m)) for m in [*range(1, 200, 2), LANDAU_MAX_BREAKPOINTS + 1]]
    verdicts = [integral_for_all_n(r) for r in near]
    routes = landau_routes(monkeypatch, near)
    assert [shape for shape, _ in routes] == [False] * len(near)
    assert verdicts == [numeric for _, numeric in routes]
    assert 0 < sum(verdicts) < len(near)
    # C(2mn, mn) at even m is R(m, m/2): the shape route, past the cap too
    evens = [binomial_ratio(form(2 * m), form(m)) for m in (2, 200, 2**21)]
    assert evens[0] == conjecture_ratio(2, 1)
    assert landau_routes(monkeypatch, evens) == [(True, True)] * 2 + [(True, False)]


def test_is_integral_sieves_only_to_the_largest_denominator_argument():
    # the numerator argument 2^40 is far past SIEVE_LIMIT; only primes <= 1 matter
    unbalanced = FactorialRatio.from_terms([(form(2**40), 1), (form(1), -1)])
    assert claim_holds(integrality_claim(unbalanced), 1) == (True, None)


def test_is_integral_empty_and_tiny_ratios():
    assert claim_holds(integrality_claim(FactorialRatio.from_terms([])), 3)[0]
    assert claim_holds(integrality_claim(FactorialRatio.from_terms([(form(0, 1), 5)])), 1)[0]


# ---------------------------------------------------------------------------
# claims and certificates

def conjecture_claim_21():
    return DivisibilityClaim(
        divisor_moduli=(form(2, 1), form(2, 3)),
        divisor_ratio=CENTRAL,
        multiplier_constants=(3, 1, 5),
        dividend_ratio=binomial_ratio(form(4), form(2)) * binomial_ratio(form(2), form(1)),
    )


def test_verify_claim_first_example():
    cert = verify_claim(conjecture_claim_21(), 1)
    assert cert.holds and cert.witness is None
    # divisor 3*5*C(2,1) = 30, dividend 15*C(4,2)*C(2,1) = 180, quotient 6
    assert 180 % 30 == 0
    assert cert.entries == ((2, 1, 2), (3, 1, 2), (5, 1, 1))


def test_verify_claim_example_31():
    claim = DivisibilityClaim(
        divisor_moduli=(form(2, 1), form(2, 3)),
        divisor_ratio=CENTRAL,
        multiplier_constants=(3, 2, 8),
        dividend_ratio=binomial_ratio(form(6), form(3)) * binomial_ratio(form(3), form(1)),
    )
    cert = verify_claim(claim, 1)
    assert cert.holds
    dividend = 3 * 2 * 8 * big_binomial(6, 3) * big_binomial(3, 1)
    assert dividend == 2880 and dividend % 30 == 0 and dividend // 30 == 96


def test_verify_claim_keeps_no_memory_once_its_certificate_is_gone():
    """After verify_claim at n = 10^6 returns and its certificate is deleted,
    under 1 MiB of traced memory is still held: no prime array outlives the
    call.  A fresh interpreter, so no sieve run by an earlier test is reused."""
    code = (
        "import tracemalloc\n"
        "from binomdiv.ratio import verify_claim\n"
        "from binomdiv.theorem import conjecture_claim\n"
        "claim = conjecture_claim(7, 5)\n"
        "tracemalloc.start()\n"
        "cert = verify_claim(claim, 10**6)\n"
        "assert cert.holds\n"
        "del cert\n"
        "print(tracemalloc.get_traced_memory()[0])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    held = int(proc.stdout)
    assert held < 1 << 20, f"{held} bytes held after the certificate was deleted"


def test_degenerate_claim_holds_with_zero_margins():
    claim = DivisibilityClaim(
        divisor_moduli=(),
        divisor_ratio=CENTRAL,
        multiplier_constants=(),
        dividend_ratio=CENTRAL,
    )
    cert = verify_claim(claim, 4)
    assert cert.holds
    assert cert.entries and all(req == av for _, req, av in cert.entries)
    assert cert.summary().min_margin == 0


def test_claim_validation():
    with pytest.raises(ValueError):
        DivisibilityClaim((), CENTRAL, (0,), CENTRAL)
    with pytest.raises(ValueError):
        DivisibilityClaim((form(1, -1),), CENTRAL, (), CENTRAL)  # 0 at n=1
    with pytest.raises(ValueError):
        DivisibilityClaim((form(-1, 5),), CENTRAL, (), CENTRAL)  # eventually < 1
    with pytest.raises(OverflowError):
        DivisibilityClaim((), CENTRAL, (2**32, 2**31), CENTRAL)  # product is 2^63
    DivisibilityClaim((), CENTRAL, (2**32, 2**31 - 1), CENTRAL)


def test_failing_claim_reports_least_witness():
    # 4 | C(2n, n) is false at n = 1 (C(2,1) = 2)
    claim = DivisibilityClaim(
        divisor_moduli=(form(0, 4),),
        divisor_ratio=FactorialRatio.from_terms([]),
        multiplier_constants=(),
        dividend_ratio=CENTRAL,
    )
    cert = verify_claim(claim, 1)
    assert not cert.holds
    assert cert.witness == 2
    assert claim_holds(claim, 1) == (False, 2)


def test_certificate_entries_sorted_and_positive_required():
    cert = verify_claim(conjecture_claim_21(), 30)
    ps = [p for p, _, _ in cert.entries]
    assert ps == sorted(ps)
    assert all(req > 0 for _, req, _ in cert.entries)


def test_certificate_columns_are_read_only_int64():
    cert = verify_claim(conjecture_claim_21(), 30)
    rows = certificate_from_rows(3, [(2, 1, 4), (5, 2, 2)])
    caller = np.array([2, 3], dtype=np.int64)
    view = Certificate(1, caller, caller, caller, None)
    for c in (cert, rows, view):
        for column in (c.primes, c.required, c.available):
            assert column.dtype == np.int64 and column.ndim == 1
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 7
        assert len(c.entries) == c.primes.size == c.required.size == c.available.size
        columns = (c.primes.tolist(), c.required.tolist(), c.available.tolist())
        assert list(c.entries) == list(zip(*columns))
        assert all(type(x) is int for row in c.entries for x in row)
        assert c.entries[-1] == tuple(c.entries)[-1]
    assert rows.entries == ((2, 1, 4), (5, 2, 2)) and rows.entries != [(2, 1, 4), (5, 2, 2)]
    caller[0] = 7  # freezing the certificate's view leaves the caller's array writable
    for bad in ((caller, caller[:1], caller), (caller, caller, caller.reshape(1, 2))):
        with pytest.raises(ValueError, match="1-D and of one length"):
            Certificate(1, *bad, None)


def test_certificate_from_rows_witness_and_margin_match_python():
    rng = random.Random(6)
    empty = certificate_from_rows(5, [])
    assert (empty.entries, empty.holds, empty.witness) == ((), True, None)
    assert empty.summary().min_margin is None and empty.primes.shape == (0,)
    for _ in range(300):
        primes = sorted(rng.sample(primes_upto(200).tolist(), rng.randint(1, 12)))
        rows = [(p, rng.randint(1, 5), rng.randint(-1, 6)) for p in primes]
        cert = certificate_from_rows(7, iter(rows))
        failing = [p for p, req, av in rows if av < req]
        assert cert.entries == tuple(rows)
        assert (cert.holds, cert.witness) == (not failing, min(failing, default=None))
        assert cert.summary().min_margin == min(av - req for _, req, av in rows)


def test_reduced_verdict_matches_full_ledger_on_failing_claims():
    failing = 0
    for a, b in sweep_pairs(8, 7):
        claim = conjecture_claim(a, b)
        for constants in ((1,), (3,), (a - b,), (3 * a - b,)):
            weaker = dataclasses.replace(claim, multiplier_constants=constants)
            for n in range(1, 31):
                cert = verify_claim(weaker, n)
                assert claim_holds(weaker, n) == (cert.holds, cert.witness)
                failing += not cert.holds
    assert failing > 0


def test_reduced_verdict_matches_full_ledger_on_a_surplus_core():
    """(2n)!/n! = (n+1)...(2n) has surplus s = 1, so claims over it take the
    reduced path: n+1 always divides it, 2n+1 and 3n do not always."""
    falling = FactorialRatio.from_terms([(form(2), 1), (form(1), -1)])
    failing = 0
    for modulus in (form(1, 1), form(2, 1), form(3)):
        claim = DivisibilityClaim((modulus,), FactorialRatio(), (), falling)
        assert integral_for_all_n(claim.core)
        for n in range(1, 61):
            cert = verify_claim(claim, n)
            assert claim_holds(claim, n) == (cert.holds, cert.witness)
            failing += not cert.holds
    assert failing > 0


def test_modulus_rows_decide_certified_claims_only():
    claim = conjecture_claim(3, 1)
    # n = 9: 2bn+1 = 19, 2bn+3 = 21 = 3 * 7; multiplier 3 * 2 * 8
    rows = list(modulus_rows(claim, 9))
    assert [(p, required) for p, required, _ in rows] == [(3, 1), (7, 1), (19, 1)]
    assert all(
        available == (p == 3) + ratio_valuation(conjecture_ratio(3, 1), 9, p)
        for p, _, available in rows
    )
    cert = certificate_from_rows(9, rows)
    assert (cert.n, cert.entries, cert.holds, cert.witness) == (9, tuple(rows), True, None)
    failing = certificate_from_rows(1, [(2, 1, 1), (3, 2, 1), (5, 2, 0)])
    assert (failing.holds, failing.witness) == (False, 3)
    offsets = binomial_ratio(form(5, -1), form(1, -1))  # C(5n-1, n-1): no certificate
    uncertified = DivisibilityClaim((form(2, 1),), CENTRAL, (), CENTRAL * offsets)
    with pytest.raises(ValueError, match="Landau"):
        next(modulus_rows(uncertified, 1))


def reference_factorize(m):
    """Independent oracle: plain trial division by every d >= 2."""
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m, e = m // d, e + 1
            out.append((d, e))
        d += 1
    return out + [(m, 1)] * (m > 1)


def reference_modulus_rows(claim, n):
    """The scalar reduced rows: trial division in Python, then
    ``ratio_valuation`` of the core at each prime of the moduli values."""
    modulus_nu, multiplier_nu = {}, {}
    for table, values in (
        (modulus_nu, [m.evaluate(n) for m in claim.divisor_moduli]),
        (multiplier_nu, claim.multiplier_constants),
    ):
        for value in values:
            for p, e in reference_factorize(value):
                table[p] = table.get(p, 0) + e
    return [
        (p, modulus_nu[p], multiplier_nu.get(p, 0) + ratio_valuation(claim.core, n, p))
        for p in sorted(modulus_nu)
    ]


def reference_verdict(claim, n):
    failing = [p for p, required, available in reference_modulus_rows(claim, n) if available < required]
    return (not failing, failing[0] if failing else None)


CERTIFIED_CORES = (
    conjecture_ratio(3, 1),
    conjecture_ratio(7, 5),
    s_binomial_ratio(),
    FactorialRatio.from_terms([(form(2), 1), (form(1), -1)]),  # (2n)!/n!, surplus 1
    FactorialRatio.from_terms(
        [(form(30), 1), (form(1), 1), (form(15), -1), (form(10), -1), (form(6), -1)]
    ),
)


def random_certified_claims(rng, count):
    """Certified claims with constant moduli, moduli that share primes and
    prime powers (8, 9, 27, 4n+4, 9n+9), and random multipliers."""
    moduli_pool = [form(0, 8), form(0, 9), form(0, 27), form(0, 30030), form(1, 1), form(2, 1),
                   form(2, 3), form(6, 3), form(4, 4), form(9, 9), form(3), form(5, 2)]
    claims = []
    for _ in range(count):
        core = rng.choice(CERTIFIED_CORES)
        moduli = tuple(rng.sample(moduli_pool, rng.randint(0, 4)))
        multipliers = tuple(rng.choices((1, 2, 3, 4, 6, 9, 12, 25, 27, 49), k=rng.randint(0, 3)))
        claim = DivisibilityClaim(moduli, FactorialRatio(), multipliers, core)
        assert integral_for_all_n(claim.core)
        claims.append(claim)
    return claims


@pytest.mark.parametrize("tile_cells", [None, 4])
def test_claims_hold_matches_scalar_rows_on_certified_claims(monkeypatch, tile_cells):
    """The batched table against the scalar reference rows, also with a tile
    of 4 cells: a lone row (constant modulus 30030) then meets four primes
    of one tile, and a batch meets several."""
    if tile_cells is not None:
        monkeypatch.setattr(valuation_module, "_TILE_CELLS", tile_cells)
    rng = random.Random(1500 + (tile_cells or 0))
    claims = random_certified_claims(rng, 60)
    which = [rng.randrange(len(claims)) for _ in range(1500)]
    ns = [rng.randint(1, 400) for _ in which]
    holds, witness = claims_hold(claims, which, ns)
    expected = [reference_verdict(claims[k], n) for k, n in zip(which, ns)]
    assert list(zip(holds.tolist(), (w or None for w in witness.tolist()))) == expected
    assert 0 < sum(not h for h, _ in expected) < len(expected)
    lone = DivisibilityClaim((form(0, 30030), form(2, 1)), FactorialRatio(), (6,), CERTIFIED_CORES[0])
    for k, n in [*zip(which[:200], ns), *((len(claims), n) for n in range(1, 30))]:
        claim = claims[k] if k < len(claims) else lone
        assert list(modulus_rows(claim, n)) == reference_modulus_rows(claim, n)
        assert claim_holds(claim, n) == reference_verdict(claim, n)


def test_claims_hold_matches_the_reference_on_weakened_claims():
    """a <= 8, six multiplier sets, n <= 200, in one call; a seeded subsample
    also against the full ledger."""
    claims = [
        dataclasses.replace(conjecture_claim(a, b), multiplier_constants=constants)
        for a, b in sweep_pairs(8, 7)
        for constants in ((1,), (3,), (a - b,), (3 * a - b,), (3, a - b), (a - b, 3 * a - b))
    ]
    which = np.repeat(np.arange(len(claims)), 200)
    ns = np.tile(np.arange(1, 201), len(claims))
    holds, witness = claims_hold(claims, which, ns)
    expected = [reference_verdict(claims[k], n) for k, n in zip(which.tolist(), ns.tolist())]
    got = list(zip(holds.tolist(), (w or None for w in witness.tolist())))
    assert got == expected
    assert sum(not h for h, _ in expected) > 1000
    rng = random.Random(200)
    for i in rng.sample(range(which.size), 300):
        cert = verify_claim(claims[which[i]], int(ns[i]))
        assert got[i] == (cert.holds, cert.witness)


def test_claims_hold_mixes_certified_and_uncertified_claims():
    """S_n claims take the table, offset-form t_n claims the full ledger, in one batch."""
    claims = [s_integrality_claim(), s_congruence_claim(), OFFSET_T_INTEGRALITY, OFFSET_T_CONGRUENCE]
    claims += [dataclasses.replace(c, multiplier_constants=(1,)) for c in claims[1::2]]
    assert [integral_for_all_n(c.core) for c in claims] == [True, True, False, False, True, False]
    rng = random.Random(6)
    which = [rng.randrange(len(claims)) for _ in range(600)]
    ns = [rng.randint(1, 60) for _ in which]
    holds, witness = claims_hold(claims, which, ns)
    got = list(zip(holds.tolist(), (w or None for w in witness.tolist())))
    assert got == [claim_holds(claims[k], n) for k, n in zip(which, ns)]
    assert got == [(c.holds, c.witness) for c in map(verify_claim, (claims[k] for k in which), ns)]
    assert {k for (h, _), k in zip(got, which) if not h} == {4, 5}


def test_claims_hold_is_the_same_for_any_table_slice(monkeypatch):
    """Failing weakened claims, moduli-free integrality claims and an uncertified
    claim in one batch: the verdicts and witnesses of the full ledger for any
    ``_TABLE_ROWS``, with the per-claim tables built once per call."""
    claims = [dataclasses.replace(conjecture_claim(a, b), multiplier_constants=(1,)) for a, b in sweep_pairs(6, 5)]
    claims += [integrality_claim(CENTRAL), integrality_claim(conjecture_ratio(5, 2)), OFFSET_T_CONGRUENCE]
    rng = random.Random(33)
    which = [rng.randrange(len(claims)) for _ in range(700)]
    ns = [rng.randint(1, 90) for _ in which]
    expected = [(c.holds, c.witness) for c in map(verify_claim, (claims[k] for k in which), ns)]
    assert 0 < sum(not h for h, _ in expected) < len(expected)
    builds = []
    monkeypatch.setattr(ratio_module, "_claim_tables",
                        lambda kept, real=ratio_module._claim_tables: builds.append(len(kept)) or real(kept))
    for rows in (1, 7, 1 << 10, 1 << 13):
        monkeypatch.setattr(ratio_module, "_TABLE_ROWS", rows)
        builds.clear()
        holds, witness = claims_hold(claims, which, ns)
        assert list(zip(holds.tolist(), (w or None for w in witness.tolist()))) == expected, rows
        assert builds == [len(claims) - 1], rows  # every claim but the uncertified one


def test_uncertified_rows_of_one_call_share_one_sieve(monkeypatch):
    """The full-ledger rows of one call slice one sieve, up to their largest
    bound (10n+1 at n = 40), and keep the verdicts of ``verify_claim``."""
    claims = [s_congruence_claim(), OFFSET_T_INTEGRALITY, OFFSET_T_CONGRUENCE]
    which, ns = [1, 2, 0, 1, 2, 1], [7, 3, 600, 40, 1, 2]  # the certified row's 2n+3 is larger
    limits = []
    monkeypatch.setattr(ratio_module, "primes_upto", lambda limit: limits.append(limit) or primes_upto(limit))
    holds, witness = claims_hold(claims, which, ns)
    assert limits == [401]
    got = list(zip(holds.tolist(), (w or None for w in witness.tolist())))
    assert got == [(c.holds, c.witness) for c in map(verify_claim, (claims[k] for k in which), ns)]


def test_certified_t_claims_match_the_offset_form():
    """t_n = L(n) / (5(10n+1)): the restated claims, also with the congruence's
    multiplier 21 weakened to 1, 3 or 7, give the verdicts and witnesses of the
    offset-form claims' full ledger for n <= 200, and over n <= 3,000 in one
    call the weakened ones fail at 132, 78 and 58 values of n."""
    pairs = [(t_integrality_claim(), OFFSET_T_INTEGRALITY), (t_congruence_claim(), OFFSET_T_CONGRUENCE)]
    pairs += [
        tuple(dataclasses.replace(c, multiplier_constants=(m,)) for c in pairs[1]) for m in (1, 3, 7)
    ]
    assert [(integral_for_all_n(new.core), integral_for_all_n(old.core)) for new, old in pairs] == [(True, False)] * 5
    ns, which = np.arange(1, 3001), np.repeat(np.arange(len(pairs)), 3000)
    verdicts = claims_hold([new for new, _ in pairs], which, np.tile(ns, len(pairs)))
    holds, witness = (column.reshape(len(pairs), ns.size) for column in verdicts)
    for k, (_, old) in enumerate(pairs):
        for n in range(1, 201):
            cert = verify_claim(old, n)
            assert (bool(holds[k, n - 1]), int(witness[k, n - 1]) or None) == (cert.holds, cert.witness), (k, n)
    assert (~holds).sum(axis=1).tolist() == [0, 0, 132, 78, 58]


def test_claims_hold_checks_each_claim_at_both_ends():
    claim = conjecture_claim(3, 1)
    empty = claims_hold([claim], [], [])
    assert [a.tolist() for a in empty] == [[], []]
    assert [a.dtype for a in empty] == [np.bool_, np.int64]
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        claims_hold([claim], [0, 0, 0], [5, 0, 7])
    with pytest.raises(OverflowError, match=r"\(2n\+1\) at n=4611686018427387904 does not fit"):
        claims_hold([claim], [0, 0, 0], [3, 2**62, 1])  # 1 passes, the largest n does not
    holds, witness = claims_hold([claim], np.zeros(3, np.intp), [9, 1, 9])
    assert holds.tolist() == [True] * 3 and witness.tolist() == [0] * 3


def test_claim_core_and_multipliers_are_computed_once(monkeypatch):
    claim = conjecture_claim(3, 1)
    assert claim.core == claim.dividend_ratio / claim.divisor_ratio == conjecture_ratio(3, 1)
    assert claim.core is claim.core
    assert s_binomial_ratio() == s_integrality_claim().core
    assert t_binomial_ratio() == OFFSET_T_INTEGRALITY.core
    divisions = []
    monkeypatch.setattr(ratio_module, "_trial_division",
                        lambda values, real=ratio_module._trial_division: divisions.append(1) or real(values))
    integral_for_all_n.cache_clear()
    fresh = conjecture_claim(3, 1)
    for n in range(1, 21):
        assert claim_holds(fresh, n) == (True, None)
    # one certification per ratio, then cache hits, also for another claim on
    # the same core; one trial division of the moduli values per call: the
    # engine divides the multiplier product without factoring it
    assert claim_holds(dataclasses.replace(fresh, multiplier_constants=(1,)), 3) == (False, 3)
    assert integral_for_all_n.cache_info()[:2] == (20, 1) and len(divisions) == 21
    holds, _ = claims_hold([fresh], np.zeros(50, np.intp), range(1, 51))
    assert holds.all() and integral_for_all_n.cache_info()[:2] == (21, 1) and len(divisions) == 22
    for n in range(1, 6):
        assert verify_claim(fresh, n).holds
    # the full ledger factors the multipliers once, then the moduli per n
    assert integral_for_all_n.cache_info()[:2] == (21, 1) and len(divisions) == 22 + 1 + 5


def test_both_verdict_paths_refuse_a_bad_instance_alike():
    """claim_holds and verify_claim raise the same error for the same bad n,
    on the reduced path (certified core) and on the full path alike."""
    cancelled = FactorialRatio.from_terms([(form(1, -2), 1)])  # (n-2)!, negative at n = 1
    certified = DivisibilityClaim(
        (form(2, 1), form(2, 3)),
        CENTRAL * cancelled,
        (3,),
        binomial_ratio(form(6), form(3)) * binomial_ratio(form(3), form(1)) * cancelled,
    )
    uncertified = DivisibilityClaim(
        (form(10, 1),),
        binomial_ratio(form(3), form(1)) * cancelled,
        (21,),
        binomial_ratio(form(15), form(5)) * binomial_ratio(form(5, -1), form(1, -1)) * cancelled,
    )
    # the cancelled (n-2)! leaves the S_n and t_n cores: one certified, one not
    assert certified.dividend_ratio / certified.divisor_ratio == s_binomial_ratio()
    assert uncertified.dividend_ratio / uncertified.divisor_ratio == OFFSET_T_INTEGRALITY.core
    assert integral_for_all_n(s_binomial_ratio()) and not integral_for_all_n(OFFSET_T_INTEGRALITY.core)
    expected = {
        0: (ValueError, "n must be >= 1, got 0"),
        1: (ValueError, r"factorial argument \(n-2\) evaluates to -1 at n=1"),
        2**62: (OverflowError, "does not fit in 64 bits"),  # the first modulus value is >= 2^63
        # the moduli fit, the dividend's budget (13n and 41n) does not
        3 * 2**58: (OverflowError, "would not fit in 64 bits"),
    }
    for claim in (certified, uncertified):
        for n, (error, message) in expected.items():
            raised = []
            for decide in (claim_holds, verify_claim):
                with pytest.raises(error, match=message) as info:
                    decide(claim, n)
                raised.append((info.type, str(info.value)))
            assert raised[0] == raised[1]


def random_binomial_product(rng):
    terms = FactorialRatio.from_terms([])
    for _ in range(rng.randint(1, 2)):
        top = rng.randint(2, 7)
        bottom = rng.randint(1, top - 1)
        terms = terms * binomial_ratio(form(top), form(bottom))
    return terms


def test_certificate_soundness_against_big_integers():
    """Holds iff the exact quotient is an integer, on random claims."""
    rng = random.Random(99)
    for _ in range(120):
        claim = DivisibilityClaim(
            divisor_moduli=tuple(
                form(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(rng.randint(0, 2))
            ),
            divisor_ratio=random_binomial_product(rng),
            multiplier_constants=tuple(
                rng.randint(1, 30) for _ in range(rng.randint(0, 2))
            ),
            dividend_ratio=random_binomial_product(rng),
        )
        n = rng.randint(1, 8)
        divisor = math.prod(m.evaluate(n) for m in claim.divisor_moduli) * int(
            exact_ratio_value(claim.divisor_ratio, n)
        )
        dividend = math.prod(claim.multiplier_constants) * int(
            exact_ratio_value(claim.dividend_ratio, n)
        )
        holds, witness = claim_holds(claim, n)
        cert = verify_claim(claim, n)
        assert holds == (dividend % divisor == 0)
        assert cert.holds == holds and cert.witness == witness
        assert cert.holds == all(av >= req for _, req, av in cert.entries)
        if not holds:
            quotient = Fraction(dividend, divisor)
            assert quotient.denominator % witness == 0


def test_per_level_terms_nonnegative_for_conjecture_shape():
    # a > b >= 1 makes every Legendre level addend of the core ratio >= 0
    for a in range(2, 11):
        for b in range(1, a):
            r = conjecture_style_ratio(a, b)
            for n in range(1, 51):
                for p in primes_upto(2 * a * n).tolist():
                    assert all(term >= 0 for term in ratio_level_terms(r, n, p))


# ---------------------------------------------------------------------------
# counted ledgers

def paying_n(claim, n):
    """The least m >= n at which ``counted_ledger`` applies to an offset-free
    claim, (L m)^3 <= bound(m)^4, else 1 where it applies there, else None.
    The bound is the largest of affine forms, so bound^4 / m^3 falls and then
    rises: the paying m are [1, A] and [B, oo), either possibly empty, and
    bisection below 2^40 finds B."""
    terms = claim.divisor_ratio.terms + claim.dividend_ratio.terms
    lcm = math.lcm(*(f.coeff for f, _ in terms if f.coeff))

    def pays(m):
        values = [f.evaluate(m) for f in claim.divisor_moduli] + claim.divisor_ratio.arguments(m)
        return (lcm * m) ** 3 <= max(values, default=0) ** 4

    if pays(n):
        return n
    hi = 1 << 40
    if not pays(hi):
        return 1 if pays(1) else None
    while hi - n > 1:  # pays(hi) and not pays(n)
        mid = (n + hi) // 2
        n, hi = (n, mid) if pays(mid) else (mid, hi)
    return hi


def test_counted_ledger_matches_the_full_ledger_on_the_conjecture():
    """a <= 8 at the least n where the counted route applies (1 to 87,802),
    the next two and a seeded sample of the 2,000 from there, with the paper's
    multiplier and with multiplier 1: (count, least margin) against
    ``verify_claim``'s enumeration of every prime, also where a weakened
    claim fails."""
    rng = random.Random(23)
    failing = 0
    for a, b in sweep_pairs(8, 7):
        claim = conjecture_claim(a, b)
        weaker = dataclasses.replace(claim, multiplier_constants=(1,))
        least = paying_n(claim, 1)
        for n in (least, least + 1, least + 2, *rng.sample(range(least + 3, least + 2000), 4)):
            for c in (claim, weaker):
                full = verify_claim(c, n)
                assert counted_ledger(c, n) == full.summary(), (str(c), n)
                failing += not full.holds
    assert failing > 0


def test_counted_ledger_at_scale():
    claim, n = conjecture_claim(7, 5), 10**7 + 500
    assert counted_ledger(claim, n) == verify_claim(claim, n).summary()


def test_counted_ledger_matches_on_moduli_and_multipliers_past_the_head():
    """Constant moduli, moduli above the largest argument, moduli sharing
    primes and multipliers with large prime factors, on zero-offset cores, each
    at the least n, from a seeded draw up, at which the counted route applies
    (``paying_n``).  A claim with a constant bound below (L n)^(3/4) at every n
    (no moduli but constants, no divisor ratio) never takes the route."""
    rng = random.Random(24)
    moduli_pool = [form(0, 5), form(0, 27), form(3, 1), form(10, 1), form(10, 3), form(40, 7), form(1, 1)]
    cores = [s_binomial_ratio(), t_integrality_claim().core, conjecture_ratio(7, 5), CENTRAL]
    never = 0
    for _ in range(120):
        moduli = tuple(rng.sample(moduli_pool, rng.randint(0, 3)))
        multipliers = tuple(rng.choices((1, 3, 21, 999983, 2 * 1000003), k=rng.randint(0, 2)))
        divisor = rng.choice([FactorialRatio(), CENTRAL, binomial_ratio(form(3), form(1))])
        claim = DivisibilityClaim(moduli, divisor, multipliers, divisor * rng.choice(cores))
        drawn = rng.randint(1, 3000)
        n = paying_n(claim, drawn)
        if n is None:
            assert not divisor.terms and all(m.coeff == 0 for m in moduli), str(claim)
            assert counted_ledger(claim, drawn) is None and counted_ledger(claim, 1) is None
            never += 1
        else:
            assert counted_ledger(claim, n) == verify_claim(claim, n).summary(), (str(claim), n)
    assert never == 7


def test_counted_ledger_sieves_nothing_past_the_root(monkeypatch):
    """The primes past isqrt(L n) are counted, never enumerated, and the head
    primes are the pi table's own: for (7, 5), L = 70, and one counted ledger
    makes one sieve call, at isqrt(70 n)."""
    limits = []
    for module in ratio_module, valuation_module:
        monkeypatch.setattr(module, "primes_upto", lambda limit: limits.append(limit) or primes_upto(limit))
    n = 10**7 + 123
    assert counted_ledger(conjecture_claim(7, 5), n) is not None
    assert limits == [math.isqrt(70 * n)]


def test_counted_ledger_and_claim_holds_match_the_full_ledger_past_a_negative_dividend():
    """(6n+5) | (14n)!(6n)!^2/(7n)!^3 has no divisor ratio, so past its last
    breakpoint 6n below 6n + 5 a prime requires 0 and has the dividend's nu
    there, 14n//(6n+5) + 2(6n//(6n+5)) - 3(7n//(6n+5)) = -1 once n >= 5: such
    a prime fails the claim but is not in the count.  At every n where the
    counted route applies, from (42 n)^3 <= (6n + 5)^4 at n = 54 on, the count
    and least margin are the full ledger's, and ``claim_holds`` (the verdict
    ``verify`` reports) is ``verify_claim``'s, failing at 883 of them."""
    dividend = FactorialRatio.from_terms([(form(14), 1), (form(6), 2), (form(7), -3)])
    claim = DivisibilityClaim((form(6, 5),), FactorialRatio(), (), dividend)
    assert paying_n(claim, 1) == 54
    failing = 0
    for n in range(54, 1501):
        top = 6 * n + 5
        assert 14 * n // top + 2 * (6 * n // top) - 3 * (7 * n // top) == -1
        cert = verify_claim(claim, n)
        assert counted_ledger(claim, n) == cert.summary(), n
        assert claim_holds(claim, n) == (cert.holds, cert.witness), n
        failing += not cert.holds
    assert failing == 883
    assert verify_claim(claim, 10).witness == 61  # in (60, 65], with nu_61 = 2 + 0 - 3


def test_counted_ledger_applies_to_zero_offsets_at_a_paying_scale_only(monkeypatch):
    # t_n's offset form never takes the counted route; its zero-offset form does
    for n in (1, 100, 10**5):
        assert counted_ledger(OFFSET_T_INTEGRALITY, n) is None
        assert counted_ledger(OFFSET_T_CONGRUENCE, n) is None
    zero = t_integrality_claim()
    assert counted_ledger(zero, 10**5) == verify_claim(zero, 10**5).summary()
    # (L n)^3 <= bound^4: for (7, 5), L = 70 and the bound is 10n + 3
    claim = conjecture_claim(7, 5)
    assert (70 * 33) ** 3 > 333**4 and (70 * 34) ** 3 <= 343**4
    assert counted_ledger(claim, 33) is None and counted_ledger(claim, 34) is not None
    # past the sieve's guard the pi table's work is bounded by the guard's sieve,
    # (70 n)^3 <= (2^31)^4 up to n ~ 3.96 * 10^10; past both, neither ledger can run,
    # and the refusal names the work bound and the guard; verify_claim refuses the sieve
    assert (70 * 10**11) ** 3 > ratio_module.SIEVE_LIMIT**4
    with pytest.raises(ResourceLimitError, match=re.escape(
            "counted ledger size L n = 7000000000000 exceeds the work bound (L n)^3 <= 2147483648^4, "
            "and sieve limit 1000000000003 exceeds the 2147483648 memory guard")):
        counted_ledger(claim, 10**11)
    with pytest.raises(ResourceLimitError, match="exceeds the"):
        verify_claim(claim, 3 * 10**8)
    # both sides of that gate with the guard at 10^4: n = 2000 (bound 20,003) is
    # counted as verify_claim, which reads valuation's own guard, enumerates it,
    # since (70 n)^3 <= (10^4)^4; at n = 20,000 the table's work is past the guard
    monkeypatch.setattr(ratio_module, "SIEVE_LIMIT", 10**4)
    assert (70 * 2000) ** 3 <= 10**16 < (70 * 20000) ** 3
    assert counted_ledger(claim, 2000) == verify_claim(claim, 2000).summary()
    with pytest.raises(ResourceLimitError, match="L n = 1400000 exceeds the work bound"):
        counted_ledger(claim, 20000)
    # an offset refuses the count whatever the bound: the sieve's guard decides
    assert counted_ledger(OFFSET_T_INTEGRALITY, 10**5) is None
