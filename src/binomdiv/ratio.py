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
checks it there with exact int64 arithmetic: a proof.  The paper's R(a, b) =
C(2an,an)C(an,bn)/C(2bn,bn) needs no pass at any size: s = 0, and its f(t) is
Lemma 1's margin at (at, bt), >= 0 in closed form by ``valuation.lemma1_margin``.

Reduced verdicts.  A claim's ``core`` is the ratio dividend/divisor,
computed once per claim and certified once per ratio by the cached
``integral_for_all_n``.  When the core is certified, no
prime outside the moduli values can fail, and ``claims_hold(claims,
which, ns)`` decides a batch of such (claim, n) rows with one table of
(row, p, required, available): the moduli values are factored together
by ``valuation._trial_division``, and available is nu_p(multipliers) +
nu_p(core).  This module is the only place that comparison is made; a
row's least failing prime is its witness.  A call builds its claims' tables once,
then holds at most a 2^20-cell trial-division tile and 2^10 table rows at a time.
Other rows take the full prime enumeration, which ``verify_claim``
always uses.  Both paths take their Legendre sums from the one kernel
``valuation.nu_factorial_over_primes``: the ledger over an array of
primes per factorial argument, the table over its (row, term) cells
with one prime per row.  ``claim_holds`` is a one-row call; on
``integrality_claim(r)``, "denominator of r | numerator of r", it decides
whether r(n) is integral, and an uncertified ratio enumerates primes only
up to its largest denominator argument.

Counted ledgers.  ``counted_ledger`` gives a claim's count of primes with
required > 0 and least margin, as ``verify_claim`` would, but no verdict, by
counting the primes between Legendre breakpoints with a pi table instead of
enumerating them, when no ratio term has an offset and the table's work is
below the sieve it replaces, also past the sieve's guard ``SIEVE_LIMIT``.

Canonical text form (also documented in the CLI):

    ratio := "1" | term (" " term)*
    term  := "(" form ")!^" exponent
    form  := affine form in n, e.g. "4n", "2n+3", "n-1", "5"

with terms sorted by (coeff, offset) descending and exponents nonzero.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ResourceLimitError
from .valuation import (
    SIEVE_LIMIT, _trial_division, nu_factorial_over_primes, prime_pi_table, primes_upto,
)

_I64_MAX = 2**63

#: Largest negative-exponent coefficient (the length of the one int64
#: array, 8 MiB) that ``integral_for_all_n`` attempts a certificate for.
LANDAU_MAX_BREAKPOINTS = 1 << 20

#: Certified rows per ``_modulus_table`` in ``claims_hold``: its Legendre cells
#: and trial-division tile stay in L2.
_TABLE_ROWS = 1 << 10


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

    def __truediv__(self, other: "FactorialRatio") -> "FactorialRatio":
        return FactorialRatio.from_terms(self.terms + tuple((f, -e) for f, e in other.terms))

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


def _r_sides(a: int, b: int) -> tuple[FactorialRatio, FactorialRatio]:
    """C(2bn, bn) and C(2an, an) C(an, bn): R(a, b) is the second over the first."""
    f = lambda c: LinearForm(c, 0)
    return binomial_ratio(f(2 * b), f(b)), binomial_ratio(f(2 * a), f(a)) * binomial_ratio(f(a), f(b))


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
    """nu_p of the ratio at n, sum e * nu_p(argument!), over an ascending prime array.

    Legendre's levels run on the primes <= max(isqrt(A), A // (size + 1)),
    A the largest argument.  Above that split nu_p(a!) = a // p counts the
    k >= 1 with p <= a // k: each term adds e * (a // first prime above the
    split) there and -e at each ``searchsorted(primes, a // k, "right")``,
    at most min(size, isqrt(A)) breakpoints, and one cumsum sums them.
    """
    _check_n(n)
    args = r.arguments(n)
    _check_int64_budget(r, args, n)
    size, top = primes.shape[0], max(args, default=0)
    split = int(np.searchsorted(primes, max(math.isqrt(top), top // (size + 1)), side="right"))
    total, head = np.zeros(size, dtype=np.int64), 0
    first, last = primes[[split, -1]].tolist() if split < size else (top + 1, 1)  # no tail: K = 0
    for (_, e), arg in zip(r.terms, args):
        total[:split] += e * nu_factorial_over_primes(arg, primes[:split])
        if k := arg // first:
            head += e * k
            # cuts ascend, below size as k > a // last; equal cuts each write their run's length
            cut = np.searchsorted(primes, arg // np.arange(k, arg // last, -1), side="right")
            total[cut] -= e * (np.searchsorted(cut, cut, side="right") - np.searchsorted(cut, cut))
    total[split : split + 1] += head
    np.cumsum(total[split:], out=total[split:])
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
    e < 0, or sum |e|*c * (largest such c) >= 2^63, is not tried.  R(a, b),
    a > b >= 1, goes first at any size (Lemma 1, module docstring): its (2an)!
    and (bn)! merge with no other term ((bn)! cancels at a = 2b), so a is half
    the top positive coeff and b the other one, or a / 2.
    """
    if any(form.offset != 0 or form.coeff < 0 for form, _ in r.terms):
        return False
    ups = [form.coeff for form, e in r.terms if e > 0]  # descending
    a = ups[0] // 2 if ups else 0
    b = ups[-1] if len(ups) > 1 else a // 2
    if a > b >= 1 and r == (sides := _r_sides(a, b))[1] / sides[0]:
        return True
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
        """dividend_ratio / divisor_ratio; like the multiplier exponents of
        the full ledger, computed once per claim."""
        return self.dividend_ratio / self.divisor_ratio

    @cached_property
    def _multiplier_nu(self) -> tuple[np.ndarray, np.ndarray]:
        return _trial_division(np.array(self.multiplier_constants, dtype=np.int64))[1:]

    def __str__(self) -> str:
        left = "".join(f"({m})" for m in self.divisor_moduli) or "1"
        right = "*".join(str(c) for c in self.multiplier_constants) or "1"
        return f"{left} {self.divisor_ratio} | {right} {self.dividend_ratio}"


@dataclass(frozen=True, eq=False)
class Certificate:
    """Per-prime ledger for one claim instance.

    ``primes``, ``required`` and ``available`` are read-only int64 columns
    ascending by prime, omitting primes with required == 0, and
    ``entries`` is a tuple of their (p, required, available) rows of Python
    ints, built each time it is read; ``witness`` is the least prime with
    available < required over every enumerated prime before the omission,
    or None, and the claim ``holds`` where there is none.
    """

    n: int
    primes: np.ndarray
    required: np.ndarray
    available: np.ndarray
    witness: int | None

    def __post_init__(self) -> None:
        for name in ("primes", "required", "available"):
            column = np.asarray(getattr(self, name), dtype=np.int64).view()
            column.flags.writeable = False  # on a view: the caller's array stays writable
            object.__setattr__(self, name, column)
        if self.primes.ndim != 1 or not self.primes.shape == self.required.shape == self.available.shape:
            raise ValueError("certificate columns must be 1-D and of one length")

    @property
    def entries(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(zip(self.primes.tolist(), self.required.tolist(), self.available.tolist()))

    @property
    def holds(self) -> bool:
        return self.witness is None

    def summary(self) -> "LedgerSummary":
        margin = int((self.available - self.required).min()) if self.primes.size else None
        return LedgerSummary(self.primes.size, margin)


class LedgerSummary(NamedTuple):
    """The primes with required > 0 and the least margin over them, if any."""

    count: int
    min_margin: int | None


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
    claim: DivisibilityClaim, n: int, sieve: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int | None]:
    """(primes, required, available) arrays over all primes that matter,
    and the witness: the least prime with available < required, or None.
    The primes are sieved, or those of ``sieve`` up to the bound, which must
    include every prime of the moduli values and multipliers up to it."""
    moduli_values, divisor_args, _ = _instance(claim, n)
    bound = max(moduli_values + divisor_args, default=0)
    primes = primes_upto(bound) if sieve is None else sieve[: np.searchsorted(sieve, bound, "right")]

    required = ratio_valuation_over_primes(claim.divisor_ratio, n, primes)
    available = ratio_valuation_over_primes(claim.dividend_ratio, n, primes)
    moduli_nu = _trial_division(np.array(moduli_values, dtype=np.int64))[1:]
    for column, (p, e) in (required, moduli_nu), (available, claim._multiplier_nu):
        keep = p <= bound  # a multiplier prime above bound is never required
        np.add.at(column, np.searchsorted(primes, p[keep]), e[keep])
    violations = np.flatnonzero(available < required)
    witness = int(primes[violations[0]]) if violations.size else None
    return primes, required, available, witness


def _claim_tables(claims: Sequence[DivisibilityClaim]) -> tuple[np.ndarray, ...]:
    """Per claim, int64: moduli as (coeff, value at n = 1) padded with (0, 1), core
    terms as (coeff, exponent) padded with (0, 0), and the multiplier product."""
    def table(rows: list[list[tuple[int, int]]], fill: tuple[int, int]) -> np.ndarray:
        width = max([1, *map(len, rows)])
        return np.array([r + [fill] * (width - len(r)) for r in rows], dtype=np.int64)

    # past int64, a modulus coeff (and n) passes _instance only where it is multiplied by 0
    moduli = table([[(min(m.coeff, _I64_MAX - 1), m.coeff + m.offset) for m in c.divisor_moduli]
                    for c in claims], (0, 1))
    core = table([[(f.coeff, e) for f, e in c.core.terms] for c in claims], (0, 0))
    return moduli, core, np.array([math.prod(c.multiplier_constants) for c in claims], dtype=np.int64)


def _modulus_table(tables: tuple[np.ndarray, ...], which: np.ndarray, ns: np.ndarray) -> tuple[np.ndarray, ...]:
    """(row, p, required, available) int64 columns sorted by (row, p), one per prime p
    of the moduli values of row i = (claim ``which[i]`` of the ``_claim_tables``,
    ``ns[i]``); the claims are certified and checked.  available is nu_p of the
    multiplier product, by repeated division, plus the core's Legendre sums, one
    ``nu_factorial_over_primes`` call over the (row, term) cells with one prime per
    row; int64 sums of signed terms wrap but end exact."""
    moduli, core, product = tables
    ns = np.minimum(ns, _I64_MAX - 1).astype(np.int64)  # clipped as a modulus coeff in _claim_tables
    values = moduli[which, :, 0] * (ns[:, None] - 1) + moduli[which, :, 1]  # c(n-1) + (c+d) <= value
    index, p, e = _trial_division(values.ravel())
    order = np.lexsort((p, index // values.shape[1]))
    row, p, e = index[order] // values.shape[1], p[order], e[order]
    first = np.flatnonzero(np.concatenate(([True], (row[1:] != row[:-1]) | (p[1:] != p[:-1])))[: p.size])
    row, p, required = row[first], p[first], np.add.reduceat(e, first)  # moduli sharing p add up

    available, rest, terms = np.zeros_like(p), product[which[row]], core[which[row]]
    while (live := np.flatnonzero(rest % p == 0)).size:
        rest[live] //= p[live]
        available[live] += 1
    nu = nu_factorial_over_primes(terms[..., 0] * ns[row, None], p[:, None])
    available += (terms[..., 1] * nu).sum(axis=1)
    return row, p, required, available


def claims_hold(
    claims: Sequence[DivisibilityClaim], which: np.ndarray, ns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Verdicts of the rows (``claims[which[i]]``, ``ns[i]``): a bool array
    and an int64 array of least witness primes, 0 where a row holds.

    Each claim is first checked by ``_instance`` at its least and largest
    n: moduli, arguments and budget are affine in n, so the ends bound
    every row.  Certified rows are decided by ``_modulus_table``, in slices
    of ``_TABLE_ROWS`` (rows without moduli pad with 1, so they hold); the
    others enumerate every prime that matters, row by row, as ``verify_claim``
    does, but slicing one sieve up to the largest bound the ends give.
    """
    which, ns = np.asarray(which, dtype=np.intp), np.asarray(ns)
    order = np.argsort(which, kind="stable")
    present, starts = np.unique(which[order], return_index=True)
    ends = (f.reduceat(ns[order], starts).tolist() for f in (np.minimum, np.maximum))
    reach = dict.fromkeys(present.tolist(), 0)  # each claim's largest full-ledger bound
    for k, lo, hi in zip(present.tolist(), *ends):
        for n in dict.fromkeys((lo, hi)):
            moduli_values, divisor_args, _ = _instance(claims[k], n)
            reach[k] = max([reach[k], *moduli_values, *divisor_args])
    witness = np.zeros(which.size, dtype=np.int64)
    certified = np.zeros(len(claims), dtype=bool)
    certified[present] = [integral_for_all_n(claims[k].core) for k in present.tolist()]
    if (full := np.flatnonzero(~certified[which])).size:
        sieve = primes_upto(max(reach[k] for k in present.tolist() if not certified[k]))
    for i in full.tolist():
        witness[i] = _claim_valuations(claims[which[i]], int(ns[i]), sieve)[3] or 0
    kept, rows = np.flatnonzero(certified), np.flatnonzero(certified[which])
    tables = _claim_tables([claims[k] for k in kept.tolist()])
    for lo in range(0, rows.size, _TABLE_ROWS):
        part = rows[lo : lo + _TABLE_ROWS]
        row, p, required, available = _modulus_table(tables, np.searchsorted(kept, which[part]), ns[part])
        failing = available < required
        row, least = np.unique(row[failing], return_index=True)  # primes ascend in a row
        witness[part[row]] = p[failing][least]
    return witness == 0, witness


def claim_holds(claim: DivisibilityClaim, n: int) -> tuple[bool, int | None]:
    """(holds, least witness prime or None) by a one-row ``claims_hold``:
    the same verdict and witness as ``verify_claim``."""
    holds, witness = claims_hold((claim,), (0,), (n,))
    return bool(holds[0]), int(witness[0]) or None


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
    return Certificate(n, primes[keep], required, available, witness)


def _sorted_unique(values: np.ndarray) -> np.ndarray:  # np.unique less its mask test, which loads numpy.ma
    values = np.sort(values)
    return np.concatenate((values[:1], values[1:][np.diff(values) != 0]))


def counted_ledger(claim: DivisibilityClaim, n: int) -> LedgerSummary | None:
    """``verify_claim(claim, n).summary()``, the count and least margin but no
    verdict, else None: where a ratio term has an offset or (L n)^3 >
    min(bound, ``SIEVE_LIMIT``)^4, the pi table's work against the cheaper of
    the sieve it replaces and the sieve's guard; ``ResourceLimitError`` where
    that test refuses a bound past the guard, as no ledger can run.  Each argument a = c n <= L n,
    so above r = isqrt(L n) nu_p(a!) = a // p is constant between breakpoints
    a // k = (L n) // (k L / c): the primes of each interval but the moduli's
    and multipliers' are counted by ``prime_pi_table(L n)``, and those take
    full columns with its primes <= r.  Past the last breakpoint below the
    bound only those are required."""
    moduli_values, divisor_args, dividend_args = _instance(claim, n)
    bound, args = max(moduli_values + divisor_args, default=0), divisor_args + dividend_args
    terms = claim.divisor_ratio.terms + claim.dividend_ratio.terms
    size = math.lcm(*(f.coeff for f, _ in terms if f.coeff)) * n
    if (offset := any(f.offset for f, _ in terms)) or size**3 > min(bound, SIEVE_LIMIT) ** 4:
        if offset or bound <= SIEVE_LIMIT:  # no count applies, or the full ledger can sieve to the bound
            return None
        raise ResourceLimitError(f"counted ledger size L n = {size} exceeds the work bound (L n)^3 <= "
                                 f"{SIEVE_LIMIT}^4, and sieve limit {bound} exceeds the {SIEVE_LIMIT} memory guard")
    root = math.isqrt(size)
    cuts = _sorted_unique(np.concatenate([[root], *(a // np.arange(1, a // (root + 1) + 1) for a in args)]))
    cuts = cuts[cuts <= max(bound, root)]  # root, then the breakpoints up to the bound
    special = np.concatenate((_trial_division(np.array(moduli_values, dtype=np.int64))[1],
                              claim._multiplier_nu[0]))
    special = _sorted_unique(special[special <= bound])
    head, large = prime_pi_table(size)
    _, required, available, _ = _claim_valuations(claim, n, _sorted_unique(np.concatenate((head, special))))
    ends = cuts[1:]  # > root: size // end indexes large; Legendre's sum at any x > isqrt(a) is a // x
    pi = np.concatenate(([head.size], large[size // ends]))
    counts = np.diff(pi - np.searchsorted(special, cuts, "right"))  # less the special primes
    need, have = (ratio_valuation_over_primes(side, n, ends)
                  for side in (claim.divisor_ratio, claim.dividend_ratio))
    counted = (counts > 0) & (need > 0)
    margins = np.concatenate(((available - required)[required > 0], (have - need)[counted]))
    count = int((required > 0).sum() + counts[counted].sum())
    return LedgerSummary(count, int(margins.min()) if margins.size else None)


@lru_cache(maxsize=4096)
def integrality_claim(r: FactorialRatio) -> DivisibilityClaim:
    """The claim "denominator of r divides numerator of r"."""
    return DivisibilityClaim(
        divisor_moduli=(),
        divisor_ratio=FactorialRatio(tuple((f, -e) for f, e in r.terms if e < 0)),
        multiplier_constants=(),
        dividend_ratio=FactorialRatio(tuple((f, e) for f, e in r.terms if e > 0)),
    )
