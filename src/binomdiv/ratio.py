"""Symbolic factorial-ratio expressions in one parameter n.

A ``FactorialRatio`` is a product of factorials of affine forms,
``prod ((c_i*n + d_i)!)^(e_i)`` with nonzero integer exponents.  Its
p-adic valuation at a concrete n is a finite signed sum of Legendre
sums, which is how divisibility claims about products of binomial
coefficients are decided without ever constructing the (astronomically
large) integers themselves.

A ``DivisibilityClaim`` asserts, for a given n,

    prod moduli_i(n) * divisor_ratio(n)  |  prod multipliers_j * dividend_ratio(n)

and ``verify_claim`` decides it prime by prime, producing a
``Certificate`` ledger of required vs available exponents.  Only primes
up to max(moduli values, divisor factorial arguments) can impose a
positive requirement, which is what keeps verification feasible at
n ~ 10^6 where the dividend's own primes would number in the millions.

Landau certificates.  ``integral_for_all_n`` proves a ratio
prod ((c_i n)!)^(e_i) integral for every n >= 1 (Landau 1900; Bober
2009): with zero offsets, coeffs >= 0 and surplus s = sum e_i c_i >= 0,
nu_p(r(n)) = sum_{i>=1} f(n / p^i) for f(t) = sum e_i floor(c_i t), and
f(t+1) = f(t) + s, so f >= 0 on [0, 1) suffices.  f steps down only at
the breakpoints k/c_i with e_i < 0, so one numpy pass per such c_i
checks it there with exact int64 arithmetic: a proof.

Reduced verdicts.  A claim's ``core`` is the ratio dividend/divisor;
the claim caches it, its certification and the exponents of its
multipliers, which both verdict paths read.  When the core is
certified, no prime outside the moduli values can fail.
``modulus_rows`` then yields, for each prime of the moduli values, the
modulus exponent against nu_p(multipliers) + nu_p(core); this module is
the only place that comparison is made.  ``claim_holds`` stops at the
first failing row (ascending, so the witness is the same least prime),
and ``Certificate.from_rows`` keeps them all.  Other inputs take the
full prime enumeration, which ``verify_claim`` always uses.
``is_integral_at(r, n)`` is ``claim_holds`` on the claim "denominator
of r | numerator of r": an uncertified ratio enumerates primes only up
to its largest denominator argument.

Canonical text form (also documented in the CLI):

    ratio := "1" | term (" " term)*
    term  := "(" form ")!^" exponent
    form  := affine form in n, e.g. "4n", "2n+3", "n-1", "5"

with terms sorted by (coeff, offset) descending and exponents nonzero.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .valuation import factorize, nu_factorial, nu_factorial_over_primes, primes_upto

_I64_MAX = 2**63

#: Largest negative-exponent coefficient (the length of the one int64
#: array, 8 MiB) that ``integral_for_all_n`` attempts a certificate for.
LANDAU_MAX_BREAKPOINTS = 1 << 20


@dataclass(frozen=True)
class LinearForm:
    """Affine form coeff*n + offset in exact integers; ``_instance`` checks 64 bits."""

    coeff: int
    offset: int

    def evaluate(self, n: int) -> int:
        return self.coeff * n + self.offset

    def __str__(self) -> str:
        c, d = self.coeff, self.offset
        if c == 0:
            return str(d)
        s = "n" if c == 1 else ("-n" if c == -1 else f"{c}n")
        if d > 0:
            return f"{s}+{d}"
        if d < 0:
            return f"{s}{d}"
        return s


def _term_key(term: tuple[LinearForm, int]) -> tuple[int, int]:
    form, _ = term
    return (-form.coeff, -form.offset)


@dataclass(frozen=True)
class FactorialRatio:
    """Merged, canonically sorted product of factorial powers.

    Construct through ``from_terms`` (or the ``binomial_ratio`` sugar):
    duplicate forms are merged by summing exponents, zero exponents are
    dropped, and terms are sorted descending by (coeff, offset) so that
    structurally equal ratios compare and hash equal.
    """

    terms: tuple[tuple[LinearForm, int], ...] = ()

    def __post_init__(self) -> None:
        keys = [_term_key(t) for t in self.terms]
        if any(e == 0 for _, e in self.terms) or sorted(set(keys)) != sorted(keys):
            raise ValueError(
                "terms must be merged, zero-exponent-free and unique; "
                "build ratios with FactorialRatio.from_terms"
            )
        if keys != sorted(keys):
            raise ValueError("terms must be sorted by (coeff, offset) descending")

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[LinearForm, int]]) -> "FactorialRatio":
        merged: dict[LinearForm, int] = {}
        for form, exponent in pairs:
            merged[form] = merged.get(form, 0) + exponent
        terms = tuple(
            sorted(((f, e) for f, e in merged.items() if e != 0), key=_term_key)
        )
        return cls(terms)

    def __mul__(self, other: "FactorialRatio") -> "FactorialRatio":
        return FactorialRatio.from_terms(self.terms + other.terms)

    def reciprocal(self) -> "FactorialRatio":
        return FactorialRatio(tuple((f, -e) for f, e in self.terms))

    def __truediv__(self, other: "FactorialRatio") -> "FactorialRatio":
        return self * other.reciprocal()

    def arguments(self, n: int) -> list[int]:
        """Evaluated factorial arguments, each checked nonnegative."""
        return [_argument(form, n) for form, _ in self.terms]

    def __str__(self) -> str:
        if not self.terms:
            return "1"
        return " ".join(f"({form})!^{e}" for form, e in self.terms)


def binomial_ratio(top: LinearForm, bottom: LinearForm) -> FactorialRatio:
    """C(top, bottom) as top!^1 * bottom!^-1 * (top-bottom)!^-1."""
    diff = LinearForm(top.coeff - bottom.coeff, top.offset - bottom.offset)
    return FactorialRatio.from_terms([(top, 1), (bottom, -1), (diff, -1)])


def _argument(form: LinearForm, n: int) -> int:
    value = form.evaluate(n)
    if value < 0:
        raise ValueError(f"factorial argument ({form}) evaluates to {value} at n={n}")
    return value


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


# ---------------------------------------------------------------------------
# valuation of a ratio

def ratio_valuation(r: FactorialRatio, n: int, p: int) -> int:
    """nu_p of the ratio at n: sum of exponent * nu_p(argument!).

    May be negative; that is exactly what non-integrality looks like.
    """
    _check_n(n)
    return sum(e * nu_factorial(_argument(form, n), p) for form, e in r.terms)


def ratio_level_terms(r: FactorialRatio, n: int, p: int) -> list[int]:
    """All nontrivial per-level addends (levels 1, 2, ... until empty); they sum to nu_p."""
    _check_n(n)
    if p < 2:
        raise ValueError(f"p must be a prime, got {p}")
    exponents = [e for _, e in r.terms]
    quotients = [a // p for a in r.arguments(n)]
    out: list[int] = []
    while any(quotients):
        out.append(sum(e * q for e, q in zip(exponents, quotients)))
        quotients = [q // p for q in quotients]
    return out


def _check_int64_budget(r: FactorialRatio, args: list[int], n: int) -> None:
    # the one 64-bit rule: nu_p(a!) < a, so this bounds every argument and partial sum
    budget = sum(abs(e) * a for (_, e), a in zip(r.terms, args))
    if budget >= _I64_MAX:
        raise OverflowError(f"ratio valuations at n={n} would not fit in 64 bits (budget {budget})")


def ratio_valuation_over_primes(
    r: FactorialRatio, n: int, primes: np.ndarray
) -> np.ndarray:
    """Vectorized ``ratio_valuation`` over an ascending prime array."""
    _check_n(n)
    args = r.arguments(n)
    _check_int64_budget(r, args, n)
    total = np.zeros(primes.shape[0], dtype=np.int64)
    column = np.empty_like(total)
    for (_, e), arg in zip(r.terms, args):
        nu_factorial_over_primes(arg, primes, out=column)
        column *= e
        total += column
    return total


@lru_cache(maxsize=4096)
def integral_for_all_n(r: FactorialRatio) -> bool:
    """Whether a Landau certificate proves r(n) integral for every n >= 1.

    True only when every form is c*n with c >= 0, s = sum e*c >= 0 and
    f(t) = sum e*floor(c*t) >= 0 at each breakpoint k/c in [0, 1) with
    e < 0.  f is right-continuous and steps down only there, so its minimum
    on [0, 1) is at one of them; f(t+1) = f(t) + s, so each level term
    f(n/p^i) of nu_p(r(n)) is >= f({n/p^i}) >= 0.  False means "not
    certified", not "non-integral": a c > ``LANDAU_MAX_BREAKPOINTS`` with
    e < 0, or sum |e|*c * (largest such c) >= 2^63, is not tried.
    """
    if any(form.offset != 0 or form.coeff < 0 for form, _ in r.terms):
        return False
    terms = [(form.coeff, e) for form, e in r.terms if form.coeff > 0]
    widest = max((c for c, e in terms if e < 0), default=0)
    if (sum(e * c for c, e in terms) < 0 or widest > LANDAU_MAX_BREAKPOINTS
            or sum(abs(e) * c for c, e in terms) * widest >= _I64_MAX):  # int64-exact
        return False
    return all(  # f(k/den) for k < den, with c*k as arange(0, c*den, c)
        sum(e * (np.arange(0, c * den, c) // den) for c, e in terms).min() >= 0
        for den in {c for c, e in terms if e < 0}
    )


# ---------------------------------------------------------------------------
# divisibility claims

@dataclass(frozen=True)
class DivisibilityClaim:
    """divisor_moduli * divisor_ratio | multipliers * dividend_ratio, at each n.

    Moduli are affine forms that must evaluate >= 1 for every n >= 1
    (constant factors on the divisor side are coeff-0 forms); multiplier
    constants are positive integers on the dividend side whose product
    fits in 64 bits.
    """

    divisor_moduli: tuple[LinearForm, ...]
    divisor_ratio: FactorialRatio
    multiplier_constants: tuple[int, ...]
    dividend_ratio: FactorialRatio

    def __post_init__(self) -> None:
        object.__setattr__(self, "divisor_moduli", tuple(self.divisor_moduli))
        object.__setattr__(self, "multiplier_constants", tuple(self.multiplier_constants))
        for c in self.multiplier_constants:
            if c < 1:
                raise ValueError(f"multiplier constants must be >= 1, got {c}")
        if math.prod(self.multiplier_constants) >= _I64_MAX:
            raise OverflowError(
                f"multiplier {'*'.join(map(str, self.multiplier_constants))} "
                "does not fit in 64 bits"
            )
        for m in self.divisor_moduli:
            # coeff >= 0 and value at n=1 >= 1 together give >= 1 for all n >= 1
            if m.coeff < 0 or m.coeff + m.offset < 1:
                raise ValueError(f"modulus ({m}) is not >= 1 for all n >= 1")

    @cached_property
    def core(self) -> FactorialRatio:
        """dividend_ratio / divisor_ratio; like its certification and the
        multiplier exponents, computed once per claim for both verdict paths."""
        return self.dividend_ratio / self.divisor_ratio

    @cached_property
    def _certified(self) -> bool:
        return integral_for_all_n(self.core)

    @cached_property
    def _multiplier_nu(self) -> dict[int, int]:
        return _prime_powers(self.multiplier_constants)

    def __str__(self) -> str:
        left = "".join(f"({m})" for m in self.divisor_moduli) or "1"
        right = "*".join(str(c) for c in self.multiplier_constants) or "1"
        return f"{left} {self.divisor_ratio} | {right} {self.dividend_ratio}"


class _Rows(Sequence):
    """(p, required, available) rows of Python ints, built from the columns
    only when read (``len`` is O(1)); equal to the tuple of those rows."""

    def __init__(self, *columns: np.ndarray) -> None:
        self._columns = columns

    def __len__(self) -> int:
        return self._columns[0].size

    def __getitem__(self, index: int) -> tuple[int, int, int]:
        return tuple(int(c[index]) for c in self._columns)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return zip(*(c.tolist() for c in self._columns))

    def __eq__(self, other: object) -> bool:
        return tuple(self) == other


@dataclass(frozen=True, eq=False)
class Certificate:
    """Per-prime ledger for one claim instance.

    ``primes``, ``required`` and ``available`` are read-only int64 columns
    ascending by prime, omitting primes with required == 0, and
    ``entries`` views them as rows; ``holds`` is decided over every
    enumerated prime before the omission, and ``witness`` is the least
    prime with available < required when the claim fails.
    """

    n: int
    primes: np.ndarray
    required: np.ndarray
    available: np.ndarray
    holds: bool
    witness: int | None

    def __post_init__(self) -> None:
        for name in ("primes", "required", "available"):
            column = np.asarray(getattr(self, name), dtype=np.int64).view()
            column.flags.writeable = False  # on a view: the caller's array stays writable
            object.__setattr__(self, name, column)
        if self.primes.ndim != 1 or not self.primes.shape == self.required.shape == self.available.shape:
            raise ValueError("certificate columns must be 1-D and of one length")

    @property
    def entries(self) -> Sequence[tuple[int, int, int]]:
        return _Rows(self.primes, self.required, self.available)

    @property
    def verdict(self) -> str:
        return "Holds" if self.holds else f"Fails(p={self.witness})"

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[tuple[int, int, int]]) -> "Certificate":
        """Certificate over (prime, required, available) rows, ascending by prime."""
        primes, required, available = np.array(list(rows), dtype=np.int64).reshape(-1, 3).T
        failing = primes[available < required]
        witness = int(failing[0]) if failing.size else None
        return cls(n, primes, required, available, witness is None, witness)

    def min_margin(self) -> int | None:
        """Smallest available - required over the entries (None if empty)."""
        return int((self.available - self.required).min()) if self.primes.size else None


def _prime_powers(values: Iterable[int]) -> dict[int, int]:
    """Exponent of each prime in the product of the values (each >= 1)."""
    out: dict[int, int] = {}
    for value in values:
        for p, e in factorize(value):
            out[p] = out.get(p, 0) + e
    return out


def _instance(claim: DivisibilityClaim, n: int) -> tuple[list[int], list[int], list[int]]:
    """Moduli values, divisor and dividend factorial arguments at n: the prologue
    of both verdict paths, checking n >= 1, each moduli value < 2^63, the
    arguments and each side's int64 budget before any sieve or factorization."""
    _check_n(n)
    moduli_values = [m.evaluate(n) for m in claim.divisor_moduli]
    for m, value in zip(claim.divisor_moduli, moduli_values):
        if value >= _I64_MAX:
            raise OverflowError(f"({m}) at n={n} does not fit in 64 bits")
    divisor_args = claim.divisor_ratio.arguments(n)
    dividend_args = claim.dividend_ratio.arguments(n)
    _check_int64_budget(claim.divisor_ratio, divisor_args, n)
    _check_int64_budget(claim.dividend_ratio, dividend_args, n)
    return moduli_values, divisor_args, dividend_args


def _claim_valuations(
    claim: DivisibilityClaim, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int | None]:
    """(primes, required, available) arrays over all primes that matter,
    and the witness: the least prime with available < required, or None.
    """
    moduli_values, divisor_args, _ = _instance(claim, n)
    bound = max(moduli_values + divisor_args, default=0)
    primes = primes_upto(bound)

    required = ratio_valuation_over_primes(claim.divisor_ratio, n, primes)
    available = ratio_valuation_over_primes(claim.dividend_ratio, n, primes)
    for column, powers in (required, _prime_powers(moduli_values)), (available, claim._multiplier_nu):
        for p, e in powers.items():
            if p <= bound:  # a multiplier prime above bound is never required
                column[int(np.searchsorted(primes, p))] += e
    violations = np.flatnonzero(available < required)
    witness = int(primes[violations[0]]) if violations.size else None
    return primes, required, available, witness


def modulus_rows(claim: DivisibilityClaim, n: int) -> Iterator[tuple[int, int, int]]:
    """(p, required, available) for each prime p of the moduli values, ascending.

    required is the exponent of p in the product of the moduli values;
    available is nu_p(multipliers) + nu_p(``claim.core``).  When
    ``integral_for_all_n`` certifies the core, no other prime can fail,
    so these rows decide the claim at n.  Rows are produced lazily, so a
    caller can stop at the first failing one; a claim whose core is not
    certified raises ``ValueError``.
    """
    if not claim._certified:
        raise ValueError(f"core ratio of {claim} has no Landau certificate")
    moduli_values = _instance(claim, n)[0]
    core, multiplier_nu = claim.core, claim._multiplier_nu
    modulus_nu = _prime_powers(moduli_values)
    for p in sorted(modulus_nu):
        yield p, modulus_nu[p], multiplier_nu.get(p, 0) + ratio_valuation(core, n, p)


def claim_holds(claim: DivisibilityClaim, n: int) -> tuple[bool, int | None]:
    """Fast verdict-only path: (holds, least witness prime or None).

    A claim whose ``core`` is certified by ``integral_for_all_n`` is
    decided by its ``modulus_rows``, stopping at the first failing row.
    Other claims enumerate every prime that matters, as ``verify_claim``
    does; both give the same verdict and witness.
    """
    if not claim._certified:
        witness = _claim_valuations(claim, n)[3]
        return witness is None, witness
    for p, required, available in modulus_rows(claim, n):
        if available < required:
            return False, p
    return True, None


def verify_claim(claim: DivisibilityClaim, n: int) -> Certificate:
    """Decide the claim at n prime by prime and return the full ledger.

    The enumerated primes go up to max(moduli values, divisor factorial
    arguments); beyond that bound the divisor requires nothing, so the
    verdict is complete whenever the dividend side is a genuine integer
    (a product of binomials times constants, as in every claim built
    here).  Keep factorial content with negative exponents on the
    divisor side.
    """
    primes, required, available, witness = _claim_valuations(claim, n)
    keep = required > 0
    required = required[keep]  # each full column is freed before the next is filtered
    available = available[keep]
    return Certificate(n, primes[keep], required, available, witness is None, witness)


class IntegralityResult(NamedTuple):
    integral: bool
    witness: int | None  # least prime with negative valuation


@lru_cache(maxsize=4096)
def _integrality_claim(r: FactorialRatio) -> DivisibilityClaim:
    """The claim "denominator of r divides numerator of r"."""
    return DivisibilityClaim(
        divisor_moduli=(),
        divisor_ratio=FactorialRatio(tuple((f, -e) for f, e in r.terms if e < 0)),
        multiplier_constants=(),
        dividend_ratio=FactorialRatio(tuple((f, e) for f, e in r.terms if e > 0)),
    )


def is_integral_at(r: FactorialRatio, n: int) -> IntegralityResult:
    """Whether the ratio evaluates to an integer at n, decided by ``claim_holds``."""
    return IntegralityResult(*claim_holds(_integrality_claim(r), n))
