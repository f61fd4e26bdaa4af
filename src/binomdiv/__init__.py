"""Exact p-adic verification of binomial-coefficient divisibility claims.

The package decides statements of the form

    (2bn+1)(2bn+3) C(2bn,bn)  |  3(a-b)(3a-b) C(2an,an) C(an,bn)

(and generalized factorial-ratio integrality) prime by prime via
Legendre's formula, never constructing the huge integers involved, with
an independent arbitrary-precision oracle for desk-scale cross checks.
"""

from .errors import IntegrityError, ResourceLimitError
from .oracle import minimal_multiplier
from .valuation import (
    factorize,
    lemma1_margin,
    lemma_fuzz,
    nu_factorial_over_primes,
    nu_int,
    prime_pi_table,
    primes_upto,
)
from .ratio import (
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
from .theorem import (
    ModulusSide,
    ParamTriple,
    ProofTrace,
    SweepReport,
    TraceBranch,
    conjecture_claim,
    conjecture_ratio,
    run_sweep,
    sweep_pairs,
    trace,
    traces_for_modulus,
)

__version__ = "0.1.0"
