"""Command line interface.

Commands:
  verify        one (a, b, n) instance -> certificate
  sweep         exhaustive or sampled (a, b, n) box -> report
  trace         proof traces for the prime factors of one modulus
  lemma-fuzz    seeded fuzzing of the floor inequality
  integrality   per-n integrality of a generalized factorial ratio
  oracle-check  cross-validation suites (valuation engine vs big integers)

The parser lives in ``args``, which loads no engine: it validates and
converts every input, and the namespace less ``command`` and ``out`` is a
JSON report's ``config``.  ``_COMMANDS`` maps ``command`` to its ``_cmd_*``
handler, which runs its library call and returns a ``_Report``.
``verify`` with a certified core reads its verdict and witness, all csv
prints, from ``claim_holds``, and its human count and margin from
``counted_ledger``, holding no ledger over every prime; the full ledger of
``verify_claim`` gives them where the counted ledger does not apply, the JSON
entries (built inside the clock) and a human table of at most 60 rows, and
is checked against both (``IntegrityError``).  Each is a cached thunk, run
only for a report that prints it or checks against it.  With an uncertified
core ``claim_holds`` would rerun the ledger's code on a second sieve, so the
one ledger gives the verdict, checked against the counted ledger if any.
``sweep`` checks each violation's ledger against its witness the same way.
``_render`` alone turns a report into json, csv or human UTF-8 chunks, and
``_run`` streams them with ``writelines`` to stdout's buffer or to ``--out``,
opened only once the JSON skeleton is encoded.  ``main(argv)`` parses, then runs.

Exit codes: 0 = all checks passed; 1 = a mathematical violation was
found (the report counts violations); 2 = usage, domain or resource error.

JSON report schema (schema_version 1):

    {"schema_version": 1, "command": <str>, "config": {...},
     "results": [...],
     "summary": {"checked": <int>, "violations": <int>, "seconds": <float>}}

Each result carries certificate entries as {"p": p, "required": r,
"available": a}; ``_json_chunks`` writes them as bytes, in blocks of 2^14 rows
and runs of equal field widths, from a ``Certificate``'s read-only int64
columns ``primes``, ``required`` and ``available``, so no report is held whole
in memory.  Reports are deterministic for a fixed config and seed, except for
the wall-clock seconds: ``_render`` reads one clock around the whole handler
and, for JSON, the results it builds (human text: the lines before its "wall
time" line), and that reading is ``summary.seconds``, the CSV ``seconds``
column and the human "wall time" line.

CSV output (verify / sweep / integrality only; the parser refuses it
elsewhere) has the fixed header ``a,b,n,verdict,witness_prime,seconds``;
inapplicable fields are empty.

Canonical ratio grammar (the text form used in claim rendering):

    ratio := "1" | term (" " term)*
    term  := "(" form ")!^" exponent
    form  := e.g. "4n", "2n+3", "n-1", "5"

with terms sorted by (coeff, offset) descending and nonzero exponents;
a claim renders as "<moduli> <divisor ratio> | <multipliers> <dividend ratio>".

One 64-bit rule: a claim is refused (exit 2) at n when a moduli value or
a side's factorial arguments times |exponent| (4*a*n here) reach 2^63;
``sweep`` checks its box's corner first.  ``trace`` computes in Python
integers, but its modulus must be < 2^63 to be factored (exit 2).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import re
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, fields

import numpy as np

from .args import parse
from .crosscheck import run_all
from .errors import IntegrityError, ResourceLimitError
from .ratio import (
    Certificate, DivisibilityClaim, FactorialRatio, LedgerSummary, LinearForm, claim_holds, claims_hold,
    counted_ledger, integral_for_all_n, integrality_claim, verify_claim,
)
from .theorem import (
    ModulusSide, ParamTriple, ProofTrace, conjecture_claim, conjecture_ratio, run_sweep, traces_for_modulus,
)
from .valuation import lemma_fuzz

SCHEMA_VERSION = 1
_JSON_BLOCK_ROWS = 2**14  # certificate entries per chunk of a JSON report
_HUMAN_MAX_ENTRIES = 60  # longer certificate tables are elided from human reports


@dataclass(frozen=True)
class _Report:
    """What one command found, before any format is chosen.

    The report bodies are thunks, so only the format asked for is built
    (``verify --format human`` never builds the certificate dicts).
    ``lines`` takes a thunk reading the wall-clock seconds; ``rows`` yields
    ``(a, b, n, verdict, witness)`` for the commands the parser gives csv.
    """

    checked: int
    violations: int
    summary_line: str
    results: Callable[[], list]
    lines: Callable[[Callable[[], float]], list[str]]
    rows: Callable[[], Iterable[tuple]] | None = None


# ---------------------------------------------------------------------------
# rendering

def _verdict(witness: int | None) -> str:
    """A verdict as every report prints it, from its least witness prime or None."""
    return "Holds" if witness is None else f"Fails(p={witness})"


def _result_dict(triple: ParamTriple, witness: int | None, cert: Certificate) -> dict:
    return {
        "a": triple.a,
        "b": triple.b,
        "n": triple.n,
        "verdict": _verdict(witness),
        "witness_prime": witness,
        # _json_chunks writes the entries list from the certificate's columns
        "certificate": {"n": cert.n, "holds": cert.holds, "witness": cert.witness, "entries": cert},
    }


def _trace_dict(trace: ProofTrace) -> dict:
    """The trace's fields, its triple's as a, b and n; json writes the tuples as lists."""
    doc = {f.name: getattr(trace, f.name) for f in fields(trace)}
    doc.update(vars(doc.pop("triple")), modulus_side=trace.modulus_side.value, branch=trace.branch.value)
    return doc


def _json_chunks(doc: dict) -> Iterator[bytes]:
    """``json.dumps(doc, indent=2, sort_keys=True)`` in UTF-8 chunks, each Certificate
    in doc as its entries list.  The skeleton, with a token "\\u0000<k>" per
    Certificate, is encoded now; the chunks are the bytes between tokens and each
    list in blocks of ``_JSON_BLOCK_ROWS`` rows.  Fields are right-aligned words
    0000..9999 (q % 10^4, q //= 10^4 on the uint64 view of abs, so -2^63 too); a
    block's rows go in runs of equal widths (sign included), each one array filled
    from a template row.  Runs are few: p ascends, so its width changes at most 18
    times in a ledger, and the others pass one digit only at small primes or those of
    the moduli and multipliers ((7, 5) at n = 10^6+123: 10 runs): no Python per row."""
    certificates: list[Certificate] = []

    def token(cert: object) -> str:
        if not isinstance(cert, Certificate):
            raise TypeError(f"Object of type {type(cert).__name__} is not JSON serializable")
        certificates.append(cert)
        return f"\0{len(certificates) - 1}"

    def entries(cert: Certificate, pad: str) -> Iterator[bytes]:
        row = f',\n{pad}  {{\n{pad}    "available": \0,\n{pad}    "p": \0,\n{pad}    "required": \0\n{pad}  }}'
        pieces = row.encode().split(b"\0")  # the row less its three fields
        table = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")  # row q: the 4 digits of q
        words = np.ascontiguousarray(table).view(np.uint32)
        for lo in range(0, cert.primes.size, _JSON_BLOCK_ROWS):
            block = np.stack([c[lo : lo + _JSON_BLOCK_ROWS] for c in (cert.available, cert.primes, cert.required)])
            widths, digits = (block < 0).astype(np.int64), np.empty((*block.shape, 20), dtype=np.uint8)
            for i, q in enumerate(np.abs(block).view(np.uint64)):  # field i of each row in its last bytes
                low, high = len(str(q.min())), len(str(q.max()))
                widths[i] += low + sum(q >= 10**k for k in range(low, high))
                for k in range(1, (high + 7) // 4):
                    rest = q // 10**4  # q - rest 10^4 is q % 10^4, without numpy's slower remainder
                    digits.view(np.uint32)[i, :, -k], q = words[q - rest * 10**4, 0], rest
            digits[block < 0, 20 - widths[block < 0]] = ord("-")
            changes = np.flatnonzero((widths[:, 1:] != widths[:, :-1]).any(axis=0)) + 1
            runs = []
            for start, stop in zip([0, *changes.tolist()], [*changes.tolist(), block.shape[1]]):
                fields = widths[:, start].tolist()
                runs.append(bytearray(b"".join(p + b"0" * w for p, w in zip(pieces, [*fields, 0]))) * (stop - start))
                rows, end = np.frombuffer(runs[-1], dtype=np.uint8).reshape(stop - start, -1), 0
                for piece, width, field in zip(pieces, fields, digits[:, start:stop]):
                    end += len(piece) + width
                    rows[:, end - width : end] = field[:, 20 - width :]
            runs[0][0] = ord("," if lo else "[")
            yield b"".join(runs)
        yield f"\n{pad}]".encode() if cert.primes.size else b"[]"

    def chunks(text: str) -> Iterator[bytes]:
        start = 0
        for match in re.finditer(r'^( *)"entries": ("\\u0000(\d+)")', text, flags=re.MULTILINE):
            yield text[start : match.start(2)].encode()
            yield from entries(certificates[int(match[3])], match[1])
            start = match.end()
        yield text[start:].encode()

    return chunks(json.dumps(doc, indent=2, sort_keys=True, default=token))


def _checked_ledger(full: Certificate, claim: DivisibilityClaim, witness: int | None,
                    counted: LedgerSummary | None = None) -> Certificate:
    """``full``, the claim's ``verify_claim`` ledger, checked against the witness
    and the counted ledger, if any (``IntegrityError``)."""
    if full.witness != witness or counted not in (None, full.summary()):
        raise IntegrityError(f"counted ledger {counted} with witness {witness} != "
                             f"{full.summary()} with witness {full.witness} at n={full.n} of {claim}")
    return full


def _certificate_lines(summary: LedgerSummary, witness: int | None, cert: Callable[[], Certificate]) -> list[str]:
    """The ledger's lines; only a table of at most 60 rows calls ``cert``."""
    lines = [f"verdict: {_verdict(witness)}", f"primes with required > 0: {summary.count}"]
    if summary.min_margin is not None:
        lines.append(f"min margin (available - required): {summary.min_margin}")
    if summary.count > _HUMAN_MAX_ENTRIES:
        lines.append("(entry table elided; rerun with --format json --out FILE)")
    elif summary.count:
        lines.append(f"{'p':>12} {'required':>9} {'available':>10}")
        lines.extend(f"{p:>12} {req:>9} {av:>10}" for p, req, av in cert().entries)
    if witness is not None:
        lines.append(f"VIOLATION at witness prime p={witness}")
    return lines


def _level_breakdown(ratio: FactorialRatio, n: int, p: int, level: int) -> str:
    """Render one Legendre level as its signed floor addends."""
    parts = []
    for form, e in ratio.terms:
        arg = form.evaluate(n)
        sign = "+" if e > 0 else "-"
        mult = "" if abs(e) == 1 else f"{abs(e)}*"
        parts.append(f"{sign} {mult}floor({arg}/{p}^{level})")
    return " ".join(parts).lstrip("+ ")


def _trace_lines(trace: ProofTrace) -> list[str]:
    t = trace.triple
    ratio = conjecture_ratio(t.a, t.b)
    lines = [
        f"p={trace.p}: {trace.modulus_side.value} = {trace.modulus_value}, "
        f"alpha={trace.alpha}, branch={trace.branch.value}",
        f"  beta={trace.beta} gamma={trace.gamma} tau={trace.tau}",
    ]
    for i, term in trace.levels:
        lines.append(f"  level {i}: {_level_breakdown(ratio, t.n, trace.p, i)} = {term}")
    lines.append(f"  satisfied: {trace.satisfied}")
    lines.extend(f"  FAILURE: {msg}" for msg in trace.failures)
    return lines


def _render(args: argparse.Namespace) -> tuple[_Report, Iterable[bytes]]:
    """Run the command and render its report in ``--format`` as UTF-8 chunks.

    The only code that reads ``--format``.  A JSON skeleton that cannot be
    encoded raises here, before any write.
    """
    started = time.perf_counter()
    report = _COMMANDS[args.command](args)
    elapsed = lambda: time.perf_counter() - started
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "config": {k: v for k, v in vars(args).items() if k not in ("command", "out")},
            "results": report.results(),  # built before the clock is read below
            "summary": {
                "checked": report.checked,
                "violations": report.violations,
                "seconds": elapsed(),
            },
        }
        return report, itertools.chain(_json_chunks(doc), [b"\n"])
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")  # writes None as ""
        writer.writerow(["a", "b", "n", "verdict", "witness_prime", "seconds"])
        seconds = elapsed()
        writer.writerows((*row, f"{seconds:.6f}") for row in report.rows())
        return report, [buffer.getvalue().encode()]
    return report, [("\n".join(report.lines(elapsed)) + "\n").encode()]


# ---------------------------------------------------------------------------
# commands

def _cmd_verify(args: argparse.Namespace) -> _Report:
    triple = ParamTriple(args.a, args.b, args.n)
    claim = conjecture_claim(args.a, args.b)
    counted = functools.cache(lambda: counted_ledger(claim, args.n))
    if integral_for_all_n(claim.core):
        witness = claim_holds(claim, args.n)[1]
        # verify_claim first: past SIEVE_LIMIT its refusal comes before the count's work
        ledger = functools.cache(lambda: _checked_ledger(verify_claim(claim, args.n), claim, witness, counted()))
    else:  # claim_holds would run verify_claim's code again: one sieve, one ledger decides
        full = verify_claim(claim, args.n)
        witness = _checked_ledger(full, claim, full.witness, counted()).witness
        ledger = lambda: full
    verdict = _verdict(witness)
    return _Report(
        checked=1,
        violations=0 if witness is None else 1,
        summary_line=f"verify a={args.a} b={args.b} n={args.n}: {verdict}",
        results=lambda: [_result_dict(triple, witness, ledger())],
        lines=lambda elapsed: [
            f"claim: {claim}",
            f"instance: a={args.a} b={args.b} n={args.n}",
            *_certificate_lines(counted() or ledger().summary(), witness, ledger),
            f"wall time: {elapsed():.3f}s",
        ],
        rows=lambda: [(args.a, args.b, args.n, verdict, witness)],
    )


def _cmd_sweep(args: argparse.Namespace) -> _Report:
    report = run_sweep(
        args.a_max, args.b_max, args.n_max, jobs=args.jobs, sample=args.sample, seed=args.seed
    )
    found = [(t, w, _checked_ledger(verify_claim(claim := conjecture_claim(t.a, t.b), t.n), claim, w))
             for t, w in report.violations]

    def lines(elapsed: Callable[[], float]) -> list[str]:
        mode = "sampled" if args.sample is not None else "exhaustive"
        out = [
            f"sweep: a <= {args.a_max}, b <= {args.b_max}, n <= {args.n_max} ({mode})",
            f"checked: {report.checked} triples",
            f"violations: {len(found)}",
            f"wall time: {elapsed():.3f}s",
        ]
        for triple, witness, cert in found:
            out.append(f"VIOLATION a={triple.a} b={triple.b} n={triple.n} witness p={witness}")
            out.extend(f"  {ln}" for ln in _certificate_lines(cert.summary(), witness, lambda: cert))
        return out

    return _Report(
        checked=report.checked,
        violations=len(found),
        summary_line=f"sweep checked={report.checked} violations={len(found)}",
        results=lambda: [
            {
                **_result_dict(triple, witness, cert),
                "traces": [
                    _trace_dict(tr)
                    for side in (ModulusSide.TWO_BN_PLUS_1, ModulusSide.TWO_BN_PLUS_3)
                    for tr in traces_for_modulus(triple, side)
                ],
            }
            for triple, witness, cert in found
        ],
        lines=lines,
        rows=lambda: [
            (triple.a, triple.b, triple.n, _verdict(witness), witness)
            for triple, witness, cert in found
        ],
    )


def _cmd_trace(args: argparse.Namespace) -> _Report:
    triple = ParamTriple(args.a, args.b, args.n)
    side = ModulusSide(args.modulus)
    traces = traces_for_modulus(triple, side)
    all_satisfied = all(tr.satisfied for tr in traces)
    return _Report(
        checked=len(traces),
        violations=sum(not tr.satisfied for tr in traces),
        summary_line=f"trace {side.value}: {'satisfied' if all_satisfied else 'VIOLATION'}",
        results=lambda: [_trace_dict(tr) for tr in traces],
        lines=lambda elapsed: [
            f"trace: a={args.a} b={args.b} n={args.n}, modulus {side.value} = {side.at(triple)}",
            *(line for tr in traces for line in _trace_lines(tr)),
            f"all satisfied: {all_satisfied}",
        ],
    )


def _cmd_lemma_fuzz(args: argparse.Namespace) -> _Report:
    violations = lemma_fuzz(args.samples, args.max_den, seed=args.seed)
    return _Report(
        checked=args.samples,
        violations=len(violations),
        summary_line=f"lemma-fuzz violations={len(violations)}",
        results=lambda: [
            {
                "x": f"{x.numerator}/{x.denominator}",
                "y": f"{y.numerator}/{y.denominator}",
            }
            for x, y in violations
        ],
        # No timing line: identical seeds must give byte-identical output.
        lines=lambda elapsed: [
            f"lemma-fuzz: samples={args.samples} max_den={args.max_den} seed={args.seed}",
            f"violations: {len(violations)}",
            *(f"VIOLATION at x={x}, y={y}" for x, y in violations),
        ],
    )


def _cmd_integrality(args: argparse.Namespace) -> _Report:
    if sum(args.num) < sum(args.den):
        print(
            f"warning: coefficient sums differ ({sum(args.num)} vs {sum(args.den)}); "
            "such ratios are non-integral for all large n",
            file=sys.stderr,
        )
    ratio = FactorialRatio.from_terms(
        [(LinearForm(c, 0), 1) for c in args.num] + [(LinearForm(c, 0), -1) for c in args.den]
    )
    ns = range(1, args.n_max + 1)
    holds, witness = claims_hold((integrality_claim(ratio),), np.zeros(len(ns), np.intp), ns)
    outcomes = list(zip(ns, holds.tolist(), [w or None for w in witness.tolist()]))
    bad = sum(not integral for _, integral, _ in outcomes)

    def lines(elapsed: Callable[[], float]) -> list[str]:
        out = [f"ratio: {ratio}"]
        for n, integral, w in outcomes:
            out.append(f"n={n}: {'integral' if integral else f'non-integral (witness p={w})'}")
        out.append(f"non-integral at {bad} of {len(outcomes)} values of n")
        return out

    return _Report(
        checked=len(outcomes),
        violations=bad,
        summary_line=f"integrality non-integral={bad}/{len(outcomes)}",
        results=lambda: [
            {"n": n, "integral": integral, "witness_prime": w} for n, integral, w in outcomes
        ],
        lines=lines,
        rows=lambda: [
            (None, None, n, "integral" if integral else "non-integral", w)
            for n, integral, w in outcomes
        ],
    )


def _cmd_oracle_check(args: argparse.Namespace) -> _Report:
    suites = run_all()
    failed = sum(not s.passed for s in suites)

    def lines(elapsed: Callable[[], float]) -> list[str]:
        out = []
        for s in suites:
            status = "ok" if s.passed else f"FAIL ({len(s.failures)} failures)"
            out.append(f"{s.name:<28} {s.checked:>8} checks  {status}")
            out.extend(f"    {msg}" for msg in s.failures[:10])
        out.append(f"suites failed: {failed}/{len(suites)}")
        return out

    return _Report(
        checked=sum(s.checked for s in suites),
        violations=failed,
        summary_line=f"oracle-check failed-suites={failed}",
        results=lambda: [
            {"suite": s.name, "checked": s.checked, "failures": list(s.failures)}
            for s in suites
        ],
        lines=lines,
    )


_COMMANDS = {
    "verify": _cmd_verify, "sweep": _cmd_sweep, "trace": _cmd_trace, "lemma-fuzz": _cmd_lemma_fuzz,
    "integrality": _cmd_integrality, "oracle-check": _cmd_oracle_check,
}


def _run(args: argparse.Namespace) -> int:
    """Run a parsed command line and write its report; the exit code."""
    try:
        report, chunks = _render(args)
        if args.out:
            with open(args.out, "wb") as out:
                out.writelines(chunks)
            print(f"{report.summary_line} (report written to {args.out})")
        else:
            sys.stdout.flush()  # text printed before goes first
            sys.stdout.buffer.writelines(chunks)
    except IntegrityError as exc:
        print(f"integrity violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if report.violations else 0


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    return args if isinstance(args, int) else _run(args)
