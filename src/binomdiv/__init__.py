"""Exact p-adic verification of binomial-coefficient divisibility claims.

The package decides statements of the form

    (2bn+1)(2bn+3) C(2bn,bn)  |  3(a-b)(3a-b) C(2an,an) C(an,bn)

(and generalized factorial-ratio integrality) prime by prime via
Legendre's formula, never constructing the huge integers involved, with
an independent arbitrary-precision oracle for desk-scale cross checks.

Exports are lazy (PEP 562): ``import binomdiv`` loads no numpy, and a
name's module is imported on its first use.
"""

import importlib

_EXPORTS = {
    "errors": ("IntegrityError", "ResourceLimitError"),
    "oracle": ("minimal_multiplier",),
    "valuation": ("factorize", "lemma1_margin", "lemma_fuzz", "nu_factorial_over_primes", "nu_int",
                  "prime_pi_table", "primes_upto"),
    "ratio": ("Certificate", "DivisibilityClaim", "FactorialRatio", "LinearForm", "binomial_ratio", "claim_holds",
              "claims_hold", "counted_ledger", "integral_for_all_n", "integrality_claim", "ratio_level_terms",
              "ratio_valuation_over_primes", "verify_claim"),
    "theorem": ("ModulusSide", "ParamTriple", "ProofTrace", "SweepReport", "TraceBranch", "conjecture_claim",
                "conjecture_ratio", "run_sweep", "sweep_pairs", "trace", "traces_for_modulus"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:  # so ``from binomdiv import valuation`` imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
