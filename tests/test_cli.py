"""End-to-end tests of the command line interface and report formats."""

import dataclasses
import functools
import json
import random
import re
import subprocess
import sys
import types

import pytest

import binomdiv
from binomdiv import cli, crosscheck, oracle, ratio, theorem, valuation
from binomdiv.cli import main
from binomdiv.errors import IntegrityError
from binomdiv.ratio import Certificate
from binomdiv.ratio import claim_holds, counted_ledger, integral_for_all_n, verify_claim
from binomdiv.theorem import ParamTriple, SweepReport, conjecture_claim, run_sweep
from binomdiv.valuation import nu_int, primes_upto
from references import certificate_from_rows, ratio_valuation


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify

def test_verify_holds_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--a", "2", "--b", "1", "--n", "1")
    assert code == 0
    assert "verdict: Holds" in out
    assert "wall time" in out


def test_verify_rejects_a_not_greater_than_b(capsys):
    code, _, err = run_cli(capsys, "verify", "--a", "1", "--b", "2", "--n", "1")
    assert code == 2
    assert "a > b" in err


def test_verify_usage_error(capsys):
    assert main(["verify", "--a", "2"]) == 2
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["verify", "--help"]) == 0


def test_verify_scale_guard(capsys):
    big = str(2**31)
    code, _, err = run_cli(capsys, "verify", "--a", big, "--b", "1", "--n", big)
    assert code == 2
    assert "does not fit in 64 bits" in err  # the multiplier 3(a-b)(3a-b)
    # the multiplier fits, the dividend's budget 4an does not
    code, _, err = run_cli(capsys, "verify", "--a", "1000000000", "--b", "1", "--n", "2306000000")
    assert code == 2
    assert "would not fit in 64 bits" in err


def test_verify_past_the_work_bound_names_it(capsys):
    """Human ``verify`` past the counted ledger's work bound and the sieve's guard
    names both; json, whose entries need the sieve, meets the guard; csv never counts."""
    argv = ("verify", "--a", "7", "--b", "5", "--n", "100000000123")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == ("error: counted ledger size L n = 7000000008610 exceeds the work bound (L n)^3 <= "
                   "2147483648^4, and sieve limit 1000000001233 exceeds the 2147483648 memory guard\n")
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, out, err) == (2, "", "error: sieve limit 1000000001233 exceeds the 2147483648 memory guard\n")
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and re.fullmatch(r"7,5,100000000123,Holds,,\d+\.\d{6}", out.splitlines()[1])


def test_verify_json_report(capsys, tmp_path):
    out_file = tmp_path / "verify.json"
    code, out, _ = run_cli(
        capsys,
        "verify", "--a", "3", "--b", "1", "--n", "2",
        "--format", "json", "--out", str(out_file),
    )
    assert code == 0
    assert "report written" in out
    doc = json.loads(out_file.read_text())
    assert doc["schema_version"] == 1
    assert doc["command"] == "verify"
    assert doc["summary"]["checked"] == 1
    assert doc["summary"]["violations"] == 0
    (result,) = doc["results"]
    assert result["verdict"] == "Holds"
    assert all(e["available"] >= e["required"] for e in result["certificate"]["entries"])


def _stdlib_json(text, certificates):
    """The report as ``json.dumps(indent=2, sort_keys=True)`` writes it, with
    each result's certificate entries rebuilt as dicts from ``certificates``."""
    doc = json.loads(text)
    for result, cert in zip(doc["results"], certificates, strict=True):
        result["certificate"]["entries"] = [
            {"p": p, "required": req, "available": av} for p, req, av in cert.entries
        ]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "a, b, n, rows, sizes",
    [
        (3, 1, 5, [], range(1)),  # certificate_from_rows(n, []): entries render as []
        (3, 1, 5, [(7, 1, 2)], range(1, 2)),
        (2, 1, 1, None, range(2, 10)),  # None: the real certificate
        (7, 5, 60, None, range(61, 10**4)),  # past the human table's 60 rows
    ],
    ids=["empty", "one", "few", "many"],
)
def test_verify_json_equals_the_stdlib_encoder(capsys, monkeypatch, a, b, n, rows, sizes):
    if rows is not None:
        fake = certificate_from_rows(n, rows)
        monkeypatch.setattr(cli, "verify_claim", lambda claim, n: fake)
        monkeypatch.setattr(cli, "counted_ledger", lambda claim, n: fake.summary())  # the JSON cross-check
    cert = cli.verify_claim(conjecture_claim(a, b), n)
    assert len(cert.entries) in sizes
    code, text, _ = run_cli(
        capsys, "verify", "--a", str(a), "--b", str(b), "--n", str(n), "--format", "json"
    )
    assert code == 0
    assert text == _stdlib_json(text, [cert])


# Failing certificates with witnesses 2 (at n = 5) and 3 (at n = 6), for faked sweep violations.
_FAILING = {5: certificate_from_rows(5, [(2, 3, 1), (3, 1, 1)]), 6: certificate_from_rows(6, [(2, 1, 1), (3, 2, 1)])}


def _fake_violations(monkeypatch, found):
    monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: SweepReport(checked=36, violations=found))
    monkeypatch.setattr(cli, "verify_claim", lambda claim, n: _FAILING[n])


def test_sweep_violation_json_equals_the_stdlib_encoder(capsys, monkeypatch):
    found = ((ParamTriple(3, 1, 5), 2), (ParamTriple(4, 3, 6), 3))
    _fake_violations(monkeypatch, found)
    code, text, _ = run_cli(
        capsys, "sweep", "--a-max", "4", "--b-max", "3", "--n-max", "6", "--format", "json"
    )
    assert code == 1
    assert text == _stdlib_json(text, [_FAILING[5], _FAILING[6]])


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_sweep_checks_each_violation_against_its_ledger(capsys, monkeypatch, fmt):
    """A sweep violation whose full ledger has another witness (3, or none, as
    (4, 3) holds at n = 6) is an integrity violation in every format: exit 1,
    empty stdout."""
    _fake_violations(monkeypatch, ((ParamTriple(4, 3, 6), 2),))
    for ledger in (lambda claim, n: _FAILING[6], verify_claim):
        monkeypatch.setattr(cli, "verify_claim", ledger)
        code, out, err = run_cli(capsys, "sweep", "--a-max", "4", "--b-max", "3", "--n-max", "6", "--format", fmt)
        assert (code, out) == (1, "") and err.startswith("integrity violation: counted ledger None with witness 2 != ")


def test_json_text_writes_entries_at_any_depth():
    cert, empty = certificate_from_rows(4, [(2, 1, 3), (3, 2, 2)]), certificate_from_rows(1, [])
    rows = [{"p": 2, "required": 1, "available": 3}, {"p": 3, "required": 2, "available": 2}]
    doc = {"entries": cert, "x": [{"y": {"entries": cert}}, {"entries": empty}]}
    reference = {"entries": rows, "x": [{"y": {"entries": rows}}, {"entries": []}]}
    assert b"".join(cli._json_chunks(doc)).decode() == json.dumps(reference, indent=2, sort_keys=True)
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._json_chunks({"x": object()})  # the skeleton is encoded before any chunk is asked for


# Certificate sizes around the block boundaries of R = 4 rows per block.
_BLOCK_ROWS = 4
_BLOCK_SIZES = (0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1)
_EDGE_VALUES = (0, -1, 7, 12345678901, -(2**63), 2**63 - 1)


def _edge_certificate(size: int, shift: int = 0) -> Certificate:
    """``size`` rows whose three columns each cycle through zero, negative,
    multi-digit and int64-extreme values."""
    v = _EDGE_VALUES
    return certificate_from_rows(
        size, [(v[(i + shift) % 6], v[(i + shift + 2) % 6], v[(i + shift + 4) % 6]) for i in range(size)]
    )


def _rows(cert: Certificate) -> list[dict]:
    return [{"p": p, "required": req, "available": av} for p, req, av in cert.entries]


def test_json_chunks_match_the_stdlib_encoder_at_block_boundaries(monkeypatch):
    monkeypatch.setattr(cli, "_JSON_BLOCK_ROWS", _BLOCK_ROWS)
    certs = [_edge_certificate(size, shift) for shift, size in enumerate(_BLOCK_SIZES)]
    doc = {"entries": certs[0], "x": [{"y": {"entries": c}, "z": -1} for c in certs[1:]]}
    reference = {
        "entries": _rows(certs[0]),
        "x": [{"y": {"entries": _rows(c)}, "z": -1} for c in certs[1:]],
    }
    chunks = list(cli._json_chunks(doc))
    assert b"".join(chunks).decode() == json.dumps(reference, indent=2, sort_keys=True)
    assert max(chunk.count(b'"p": ') for chunk in chunks) == _BLOCK_ROWS


def _random_certificate(seed: int, size: int) -> Certificate:
    """``size`` rows of random int64 columns, each in runs of random length
    whose values share a random sign and number of digits; rows 0-2 hold
    -2^63, 2^63 - 1 and 0, and available reads -5 then 10 (one width, two
    signs) at rows 3 and 4."""
    rng = random.Random(seed)
    columns = []
    for _ in range(3):
        column = []
        while len(column) < size:
            digits, sign, length = rng.randint(1, 19), rng.choice((1, -1)), rng.choice((1, 2, 3, 50, 2000))
            low, high = (10 ** (digits - 1) if digits > 1 else 0), min(10**digits, 2**63) - 1
            column += [sign * rng.randint(low, high) for _ in range(length)]
        columns.append(column[:size])
    for column in columns:
        column[:3] = rng.sample([-(2**63), 2**63 - 1, 0], 3)
    columns[0][3:5] = [-5, 10]
    available, primes, required = columns
    return certificate_from_rows(seed, zip(primes, required, available))


@pytest.mark.parametrize("block_rows", [4, 2**14])
def test_json_chunks_match_the_stdlib_encoder_on_random_certificates(monkeypatch, block_rows):
    monkeypatch.setattr(cli, "_JSON_BLOCK_ROWS", block_rows)
    cert = _random_certificate(34, 3 * 2**14 + 5)
    doc, reference = {"x": [{"entries": cert}], "z": -1}, {"x": [{"entries": _rows(cert)}], "z": -1}
    chunks = list(cli._json_chunks(doc))
    assert all(type(chunk) is bytes for chunk in chunks)
    assert b"".join(chunks).decode() == json.dumps(reference, indent=2, sort_keys=True)


def test_verify_json_to_stdout_equals_its_out_file(capfdbinary, tmp_path):
    argv = ["verify", "--a", "7", "--b", "5", "--n", "60123", "--format", "json"]
    seconds = re.compile(rb'"seconds": [0-9.e-]+')
    assert main(argv) == 0
    stdout = capfdbinary.readouterr().out
    assert main([*argv, "--out", str(tmp_path / "r.json")]) == 0
    assert b"report written" in capfdbinary.readouterr().out
    out = (tmp_path / "r.json").read_bytes()
    assert len(stdout) > 10**6 and seconds.sub(b"", stdout) == seconds.sub(b"", out)


@pytest.mark.parametrize("size", _BLOCK_SIZES)
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_verify_json_at_block_boundaries(capsys, monkeypatch, tmp_path, size, to_file):
    monkeypatch.setattr(cli, "_JSON_BLOCK_ROWS", _BLOCK_ROWS)
    cert = _edge_certificate(size)
    monkeypatch.setattr(cli, "verify_claim", lambda claim, n: cert)
    monkeypatch.setattr(cli, "counted_ledger", lambda claim, n: cert.summary())  # the JSON cross-check
    monkeypatch.setattr(cli, "claim_holds", lambda claim, n: (cert.holds, cert.witness))
    out_file = tmp_path / "r.json"
    argv = ["verify", "--a", "3", "--b", "1", "--n", str(size + 1), "--format", "json"]
    code, text, _ = run_cli(capsys, *argv, *(["--out", str(out_file)] if to_file else []))
    if to_file:
        assert "report written" in text
        text = out_file.read_text(encoding="utf-8")
    assert code == (0 if cert.holds else 1)
    assert text == _stdlib_json(text, [cert])


def test_unencodable_report_raises_before_out_is_created(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_result_dict", lambda *args: {"x": object()})
    out_file = tmp_path / "r.json"
    with pytest.raises(TypeError, match="not JSON serializable"):
        main(["verify", "--a", "3", "--b", "1", "--n", "2", "--format", "json", "--out", str(out_file)])
    assert not out_file.exists()


def test_verify_csv_row(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--a", "2", "--b", "1", "--n", "3", "--format", "csv"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "a,b,n,verdict,witness_prime,seconds"
    assert row.startswith("2,1,3,Holds,,")


@pytest.mark.parametrize(
    "n, fmt, full",
    [(10**5, "human", 0), (10**5, "csv", 0), (10**5, "json", 1), (40, "human", 1), (40, "csv", 0), (33, "csv", 0)],
)
def test_verify_builds_the_full_ledger_only_where_the_report_needs_it(capsys, monkeypatch, n, fmt, full):
    """(7, 5) takes the counted route from n = 34 on; at n = 40 the human
    table's 58 rows come from the full ledger, at n = 10^5 the JSON entries.
    csv prints the verdict of ``claim_holds`` alone, and counts nothing."""
    calls, counts = [], []
    monkeypatch.setattr(cli, "verify_claim", lambda claim, n: calls.append(n) or verify_claim(claim, n))
    monkeypatch.setattr(cli, "counted_ledger", lambda claim, n: counts.append(n) or counted_ledger(claim, n))
    code, out, _ = run_cli(capsys, "verify", "--a", "7", "--b", "5", "--n", str(n), "--format", fmt)
    assert code == 0 and len(calls) == full and len(counts) == (fmt != "csv")
    if fmt == "human":
        cert = verify_claim(conjecture_claim(7, 5), n)
        assert "\n" + "\n".join(cli._certificate_lines(cert.summary(), cert.witness, lambda: cert)) + "\n" in out


def _weaker(a, b):
    return dataclasses.replace(conjecture_claim(a, b), multiplier_constants=(1,))


def test_verify_failing_verdict_prints_the_full_ledger_table(capsys, monkeypatch):
    """With multiplier 1, (2, 1) fails at n = 31: ``claim_holds`` gives the
    verdict, witness and exit code, the counted ledger the count, and the
    human table and JSON entries come from ``verify_claim``."""
    monkeypatch.setattr(cli, "conjecture_claim", _weaker)
    cert = verify_claim(_weaker(2, 1), 31)
    assert cli.counted_ledger(_weaker(2, 1), 31) == cert.summary() and cert.witness == 5
    lines = cli._certificate_lines(cert.summary(), cert.witness, lambda: cert)
    argv = ("verify", "--a", "2", "--b", "1", "--n", "31", "--format")
    code, human, _ = run_cli(capsys, *argv, "human")
    assert code == 1
    assert "\n".join(lines).endswith("VIOLATION at witness prime p=5")
    assert "\n" + "\n".join(lines) + "\n" in human
    code, csv_text, _ = run_cli(capsys, *argv, "csv")
    assert code == 1 and csv_text.splitlines()[1].startswith("2,1,31,Fails(p=5),5,")
    code, text, _ = run_cli(capsys, *argv, "json")
    assert code == 1 and text == _stdlib_json(text, [cert])


def test_verify_failing_verdict_past_the_table_builds_no_full_ledger(capsys, monkeypatch):
    """With multiplier 1, (2, 1) fails at n = 311 with 79 primes required, too
    many for a human table: human and csv reports take the verdict from
    ``claim_holds`` and never call ``verify_claim``; JSON calls it once."""
    claim = _weaker(2, 1)
    assert claim_holds(claim, 311) == (False, 5) and counted_ledger(claim, 311).count == 79
    monkeypatch.setattr(cli, "conjecture_claim", _weaker)
    calls = []
    monkeypatch.setattr(cli, "verify_claim", lambda claim, n: calls.append(n) or verify_claim(claim, n))
    argv = ("verify", "--a", "2", "--b", "1", "--n", "311", "--format")
    code, human, _ = run_cli(capsys, *argv, "human")
    assert code == 1 and calls == []
    assert "verdict: Fails(p=5)" in human.splitlines()
    assert "(entry table elided; rerun with --format json --out FILE)\nVIOLATION at witness prime p=5\n" in human
    code, csv_text, _ = run_cli(capsys, *argv, "csv")
    assert code == 1 and calls == [] and csv_text.splitlines()[1].startswith("2,1,311,Fails(p=5),5,")
    code, text, _ = run_cli(capsys, *argv, "json")
    assert code == 1 and calls == [311]
    assert text == _stdlib_json(text, [verify_claim(claim, 311)])


@pytest.mark.parametrize("field", ["holds", "count", "min_margin"])
def test_verify_json_cross_checks_the_counted_ledger(capsys, monkeypatch, field):
    """A JSON report checks the full ledger against the verdict of
    ``claim_holds`` (a wrong one for "holds") and the counted ledger."""
    counted = cli.counted_ledger

    def wrong(claim, n):
        summary = counted(claim, n)
        return summary._replace(**{field: getattr(summary, field) + 1})

    if field == "holds":
        monkeypatch.setattr(cli, "claim_holds", lambda claim, n: (False, 2))
    else:
        monkeypatch.setattr(cli, "counted_ledger", wrong)
    code, out, err = run_cli(capsys, "verify", "--a", "7", "--b", "5", "--n", "1000", "--format", "json")
    assert (code, out) == (1, "") and err.startswith("integrity violation: counted ledger LedgerSummary(")


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_verify_checks_the_witness_where_the_ledger_is_not_counted(capsys, monkeypatch, fmt):
    """(7, 5) at n = 33 has no counted ledger: its full ledger gives the human
    count and the JSON entries, and a ``claim_holds`` witness it does not show
    is an integrity violation.  csv prints the verdict of ``claim_holds`` alone."""
    assert counted_ledger(conjecture_claim(7, 5), 33) is None
    monkeypatch.setattr(cli, "claim_holds", lambda claim, n: (False, 2))
    code, out, err = run_cli(capsys, "verify", "--a", "7", "--b", "5", "--n", "33", "--format", fmt)
    if fmt == "csv":
        assert (code, err) == (1, "") and re.fullmatch(r"a,b,n,verdict,witness_prime,seconds\n"
                                                       r"7,5,33,Fails\(p=2\),2,\d+\.\d{6}\n", out)
    else:
        assert (code, out) == (1, "") and err.startswith("integrity violation: counted ledger None with witness 2 != ")


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_verify_checks_an_uncertified_ledger_against_the_counted_one(capsys, monkeypatch, fmt):
    """(2097152, 1048576) at n = 1 has an uncertified core (2b > 2^20) and a
    counted ledger: the one full ledger that decides is checked against it in
    every format, so a wrong count is an integrity violation."""
    counted = cli.counted_ledger
    monkeypatch.setattr(cli, "counted_ledger", lambda claim, n: counted(claim, n)._replace(count=1))
    code, out, err = run_cli(capsys, "verify", "--a", "2097152", "--b", "1048576", "--n", "1", "--format", fmt)
    assert (code, out) == (1, "") and err.startswith("integrity violation: counted ledger LedgerSummary(count=1,")


@functools.cache
def _reference_certificate(claim, n):
    """The claim's ledger at n, prime by prime from ``references.ratio_valuation``
    and ``nu_int`` of the moduli values and multipliers, up to its bound."""
    moduli = [m.evaluate(n) for m in claim.divisor_moduli]
    rows = []
    for p in primes_upto(max(moduli + claim.divisor_ratio.arguments(n))).tolist():
        required = sum(nu_int(m, p) for m in moduli) + ratio_valuation(claim.divisor_ratio, n, p)
        available = sum(nu_int(c, p) for c in claim.multiplier_constants) + ratio_valuation(claim.dividend_ratio, n, p)
        rows.append((p, required, available))
    failing = [p for p, required, available in rows if available < required]
    cert = certificate_from_rows(n, [row for row in rows if row[1] > 0])
    return dataclasses.replace(cert, witness=failing[0] if failing else None)


@pytest.mark.parametrize("fmt", ["human", "csv", "json"])
@pytest.mark.parametrize("make_claim, a, b, n, summary, witness, counted", [
    (conjecture_claim, 2000000, 1, 1000, (211, 0), None, False),  # past the human table
    (_weaker, 2000000, 1, 106, (35, -1), 71, False),  # multiplier 1: a table of 35 rows
    (conjecture_claim, 2097152, 1048576, 1, (106027, 0), None, True),  # 2b > 2^20, counted
], ids=["holds", "fails", "mixed"])
def test_verify_sieves_once_where_the_core_is_uncertified(capsys, monkeypatch, fmt, make_claim, a, b, n,
                                                          summary, witness, counted):
    """An uncertified core (a coefficient above 2^20): one full ledger, over
    one sieve to 2bn+3, gives the verdict, witness and report, as the
    reference ledger has them, whether or not a counted ledger applies."""
    claim = make_claim(a, b)
    assert not integral_for_all_n(claim.core) and (counted_ledger(claim, n) is not None) == counted
    reference = _reference_certificate(claim, n)
    assert (reference.summary(), reference.witness) == (summary, witness)
    monkeypatch.setattr(cli, "conjecture_claim", make_claim)
    limits = []
    monkeypatch.setattr(ratio, "primes_upto", lambda limit, real=ratio.primes_upto: limits.append(limit) or real(limit))
    code, out, _ = run_cli(capsys, "verify", "--a", str(a), "--b", str(b), "--n", str(n), "--format", fmt)
    assert (code, limits) == (int(witness is not None), [2 * b * n + 3])
    verdict = cli._verdict(witness)
    if fmt == "human":
        *lines, wall = out.splitlines()
        assert re.fullmatch(r"wall time: \d+\.\d{3}s", wall) and lines == [
            f"claim: {claim}", f"instance: a={a} b={b} n={n}",
            *cli._certificate_lines(reference.summary(), witness, lambda: reference),
        ]
    elif fmt == "csv":
        assert re.fullmatch(rf"a,b,n,verdict,witness_prime,seconds\n{a},{b},{n},"
                            rf"{re.escape(verdict)},{witness or ''},\d+\.\d{{6}}\n", out)
    else:
        assert out == _stdlib_json(out, [reference])
        result = json.loads(out)["results"][0]
        assert (result["verdict"], result["witness_prime"], result["certificate"]["witness"]) == (verdict, witness, witness)


# ---------------------------------------------------------------------------
# trace

def test_trace_2bn_plus_3(capsys):
    code, out, _ = run_cli(
        capsys, "trace", "--a", "3", "--b", "1", "--n", "1", "--modulus", "2bn+3"
    )
    assert code == 0
    assert "p=5" in out
    assert "level 1" in out
    assert "= 1" in out
    assert "all satisfied: True" in out


def test_trace_nine_divides_n(capsys):
    code, out, _ = run_cli(
        capsys, "trace", "--a", "3", "--b", "1", "--n", "9", "--modulus", "2bn+3"
    )
    assert code == 0
    assert "2bn+3 = 21" in out
    assert "p=3: 2bn+3 = 21, alpha=1, branch=multiplier-covers" in out.splitlines()
    assert "p=7" in out


def test_trace_2bn_plus_1_level_analysis(capsys):
    code, out, _ = run_cli(
        capsys, "trace", "--a", "2", "--b", "1", "--n", "1", "--modulus", "2bn+1"
    )
    assert code == 0
    assert "branch=level-analysis" in out
    assert "  beta=0 gamma=0 tau=0" in out.splitlines()
    assert "all satisfied: True" in out


def test_trace_has_no_64_bit_limit(capsys):
    code, out, _ = run_cli(
        capsys, "trace", "--a", str(2**62), "--b", "1", "--n", "1", "--modulus", "2bn+3"
    )
    assert code == 0
    assert "all satisfied: True" in out


def test_trace_past_the_sieve_guard_exits_2(capsys):
    # 2bn+3 = 2^63 + 3: the one 64-bit rule refuses to factor it
    code, out, err = run_cli(
        capsys, "trace", "--a", "2", "--b", "1", "--n", str(2**62), "--modulus", "2bn+3"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: cannot factor {2**63 + 3}; argument must be >= 1 and fit in 64 bits\n"


def test_trace_prints_a_failed_analysis_and_exits_1(capsys, monkeypatch):
    # the level terms of R are >= 0 and the analysed ones are exactly 1: force zeros
    monkeypatch.setattr(theorem, "ratio_level_terms", lambda r, n, p: [0])
    code, out, err = run_cli(capsys, "trace", "--a", "3", "--b", "1", "--n", "1", "--modulus", "2bn+3")
    assert (code, err) == (1, "")
    assert out.splitlines()[-6:] == [
        "  level 1: floor(6/5^1) - floor(3/5^1) - 2*floor(2/5^1) + floor(1/5^1) = 0",
        "  satisfied: False",
        "  FAILURE: level 1 term is 0, expected exactly 1",
        "  FAILURE: nu_p(R) = 0 < alpha - tau = 1",
        "  FAILURE: nu_p(3(a-b)(3a-b)R) = 0 < alpha = 1",
        "all satisfied: False",
    ]


def test_trace_rejects_bad_modulus_selector(capsys):
    assert main(["trace", "--a", "2", "--b", "1", "--n", "1", "--modulus", "2bn+5"]) == 2


def test_trace_rejects_csv(capsys, tmp_path):
    """trace, lemma-fuzz and oracle-check have no csv form: the parser refuses
    it with a usage error, before any validation or work."""
    out_file = tmp_path / "report.csv"
    for argv in (
        ["trace", "--a", "2", "--b", "1", "--n", "1", "--modulus", "2bn+1"],
        ["lemma-fuzz", "--samples", "5", "--max-den", "10000000000"],  # max-den is out of range
        ["oracle-check"],
    ):
        for extra in ([], ["--out", str(out_file)]):
            code, out, err = run_cli(capsys, *argv, "--format", "csv", *extra)
            assert code == 2
            assert err.startswith(f"usage: binomdiv {argv[0]} ")
            assert f"binomdiv {argv[0]}: error: argument --format: invalid choice: 'csv'" in err
            assert out == ""
            assert not out_file.exists()


# ---------------------------------------------------------------------------
# sweep

def test_sweep_clean_box_json_round_trip(capsys, tmp_path):
    out_file = tmp_path / "sweep.json"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--a-max", "5", "--b-max", "4", "--n-max", "20",
        "--format", "json", "--out", str(out_file),
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    direct = run_sweep(5, 4, 20)
    assert doc["summary"]["checked"] == direct.checked == 10 * 20
    assert doc["summary"]["violations"] == 0
    assert doc["results"] == [] and direct.violations == ()


def test_sweep_empty_range(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--a-max", "1", "--b-max", "1", "--n-max", "10"
    )
    assert code == 0
    assert "checked: 0 triples" in out
    assert "violations: 0" in out


def test_sweep_reports_are_deterministic_up_to_timing(capsys, tmp_path):
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for path in paths:
        code, _, _ = run_cli(
            capsys,
            "sweep", "--a-max", "4", "--b-max", "3", "--n-max", "4",
            "--jobs", "1", "--seed", "9", "--format", "json", "--out", str(path),
        )
        assert code == 0
    docs = [json.loads(p.read_text()) for p in paths]
    for doc in docs:
        doc["summary"]["seconds"] = None  # wall time is the one exempt field
    assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)


def test_sweep_parallel_report_matches_serial(capsys, tmp_path):
    serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
    for path, jobs in ((serial, "1"), (parallel, "2")):
        assert (
            main(
                [
                    "sweep", "--a-max", "5", "--b-max", "4", "--n-max", "4",
                    "--jobs", jobs, "--format", "json", "--out", str(path),
                ]
            )
            == 0
        )
    capsys.readouterr()
    one, two = json.loads(serial.read_text()), json.loads(parallel.read_text())
    for doc in (one, two):
        doc["summary"]["seconds"] = None
        doc["config"]["jobs"] = None
    assert one == two


def test_sweep_sampled(capsys, tmp_path):
    out_file = tmp_path / "sampled.json"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--a-max", "6", "--b-max", "5", "--n-max", "10",
        "--sample", "17", "--seed", "3", "--format", "json", "--out", str(out_file),
    )
    assert code == 0
    assert json.loads(out_file.read_text())["summary"]["checked"] == 17


def test_sweep_csv_header_only_when_clean(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--a-max", "3", "--b-max", "2", "--n-max", "3",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "a,b,n,verdict,witness_prime,seconds"
    assert len(out.strip().splitlines()) == 1


def test_sweep_refuses_a_box_of_2_63_triples_or_more(capsys):
    # 999,999,999 * 10^9 / 2 pairs times 10^9 values of n; sampled or not, the
    # guard names the count before len() or random.sample sees the range
    for extra in (("--sample", "5"), ()):
        code, out, err = run_cli(
            capsys, "sweep", "--a-max", "1000000000", "--b-max", "999999999",
            "--n-max", "1000000000", *extra,
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: the box has 499999999500000000000000000 triples; "
            "a sweep indexes at most 2^63 - 1\n"
        )


def test_sweep_unwritable_out(capsys):
    code, _, err = run_cli(
        capsys,
        "sweep", "--a-max", "2", "--b-max", "1", "--n-max", "1",
        "--out", "/nonexistent-dir/report.json",
    )
    assert code == 2
    assert err


def test_out_to_missing_directory_is_refused_before_the_work(capsys, monkeypatch, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep ran although --out cannot be written")

    monkeypatch.setattr(cli, "run_sweep", forbidden)
    missing = tmp_path / "missing-dir" / "r.json"
    code, out, err = run_cli(
        capsys, "sweep", "--a-max", "25", "--b-max", "24", "--n-max", "100", "--out", str(missing)
    )
    assert code == 2
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert not missing.exists()
    # the parser's csv refusal still wins
    code, _, err = run_cli(capsys, "oracle-check", "--format", "csv", "--out", str(missing))
    assert code == 2
    assert "binomdiv oracle-check: error: argument --format: invalid choice: 'csv'" in err
    # a command that fails leaves an existing --out file as it was
    existing = tmp_path / "r.json"
    existing.write_text("keep\n", encoding="utf-8")
    code, _, _ = run_cli(
        capsys, "verify", "--a", "1", "--b", "2", "--n", "1", "--out", str(existing)
    )
    assert code == 2
    assert existing.read_text(encoding="utf-8") == "keep\n"


def test_out_naming_a_directory_is_refused_before_the_work(capsys, monkeypatch, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep ran although --out names a directory")

    monkeypatch.setattr(cli, "run_sweep", forbidden)
    with pytest.raises(OSError) as opened:
        open(tmp_path, "w")
    for out_dir in (str(tmp_path), f"{tmp_path}/"):
        code, out, err = run_cli(
            capsys, "sweep", "--a-max", "25", "--b-max", "24", "--n-max", "100", "--out", out_dir
        )
        assert (code, out) == (2, "")
        assert err == f"error: {opened.value}\n".replace(str(tmp_path), out_dir)
    assert err.startswith("error: [Errno 21] Is a directory: ")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# lemma-fuzz

def test_lemma_fuzz_clean_and_byte_identical(capsys):
    argv = ["lemma-fuzz", "--samples", "20000", "--max-den", "1000", "--seed", "42"]
    code_one, out_one, _ = run_cli(capsys, *argv)
    code_two, out_two, _ = run_cli(capsys, *argv)
    assert code_one == code_two == 0
    assert out_one == out_two
    assert "violations: 0" in out_one


def test_lemma_fuzz_single_sample(capsys):
    code, out, _ = run_cli(capsys, "lemma-fuzz", "--samples", "1")
    assert code == 0
    assert "violations: 0" in out


def test_lemma_fuzz_pin_mismatch_is_an_integrity_violation(capsys, monkeypatch):
    """A closed form that disagrees with the int64 floors is a finding: exit 1."""
    real = valuation.lemma1_margin
    monkeypatch.setattr(valuation, "lemma1_margin", lambda x, y: real(x, y) + 1)
    code, out, err = run_cli(capsys, "lemma-fuzz", "--samples", "10")
    assert (code, out) == (1, "") and err.startswith("integrity violation: vectorized lemma engine disagrees")


# ---------------------------------------------------------------------------
# integrality

def test_integrality_chebyshev_ratio(capsys):
    code, out, _ = run_cli(
        capsys, "integrality", "--num", "30,1", "--den", "15,10,6", "--n-max", "20"
    )
    assert code == 0
    assert "non-integral at 0 of 20" in out


def test_integrality_inverse_central_binomial(capsys):
    code, out, _ = run_cli(
        capsys, "integrality", "--num", "1,1", "--den", "2", "--n-max", "5"
    )
    assert code == 1
    assert "n=1: non-integral (witness p=2)" in out


def test_integrality_central_binomial(capsys):
    code, out, _ = run_cli(
        capsys, "integrality", "--num", "2", "--den", "1,1", "--n-max", "5"
    )
    assert code == 0


def test_integrality_sum_mismatch_warns_but_runs(capsys):
    code, out, err = run_cli(
        capsys, "integrality", "--num", "3", "--den", "1,1", "--n-max", "3"
    )
    assert code == 0  # (3n)!/(n!n!) is integral for every n
    assert "warning" not in err
    code, out, err = run_cli(
        capsys, "integrality", "--num", "1,1", "--den", "3", "--n-max", "3"
    )
    assert code == 1  # (n!n!)/(3n)! is not an integer for any n
    assert "warning" in err


def test_integrality_rejects_bad_coefficients(capsys):
    """The parser refuses a malformed list, naming its flag, before any work."""
    for flag in ("--num", "--den"):
        for bad, message in (("2,x", "expects a comma-separated integer list: invalid literal for int() "
                                     "with base 10: 'x'"),
                             ("0", "coefficients must be >= 1"), (",", "must list at least one coefficient")):
            argv = ["integrality", "--num", "1", "--den", "1", "--n-max", "2"]
            argv[argv.index(flag) + 1] = bad
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.endswith(f"binomdiv integrality: error: argument {flag}: {message}\n")


def test_integrality_json(capsys, tmp_path):
    out_file = tmp_path / "integrality.json"
    code, _, _ = run_cli(
        capsys,
        "integrality", "--num", "1,1", "--den", "2", "--n-max", "3",
        "--format", "json", "--out", str(out_file),
    )
    assert code == 1
    doc = json.loads(out_file.read_text())
    assert [r["integral"] for r in doc["results"]] == [False, False, False]
    assert doc["results"][0]["witness_prime"] == 2


# ---------------------------------------------------------------------------
# oracle-check

def test_oracle_check_passes(capsys):
    code, out, _ = run_cli(capsys, "oracle-check")
    assert code == 0
    assert out.endswith("suites failed: 0/3\n")
    assert [line.split()[0] for line in out.splitlines()[:-1]] == [
        "claims-vs-bigint", "congruences-vs-bigint", "minimal-multiplier",
    ]


@pytest.mark.parametrize(
    "name, suite_fn, bad",
    [
        ("minimal_multiplier", crosscheck.suite_minimal_multiplier, (3, 1, 2)),
        ("exact_t", crosscheck.suite_congruences_vs_oracle, (4,)),
    ],
    ids=["minimal-multiplier", "congruences"],
)
def test_oracle_integrity_error_is_a_suite_failure(capsys, monkeypatch, name, suite_fn, bad):
    real = getattr(oracle, name)

    def corrupted(*args):
        if args == bad:
            raise IntegrityError(f"corrupted oracle value at {args}")
        return real(*args)

    monkeypatch.setattr(oracle, name, corrupted)
    result = suite_fn()
    assert result.failures == (f"corrupted oracle value at {bad}",)
    code, out, err = run_cli(capsys, "oracle-check")
    assert code == 1
    assert err == ""
    assert f"{result.name:<28} {result.checked:>8} checks  FAIL (1 failures)" in out
    assert f"    corrupted oracle value at {bad}" in out
    assert out.endswith("suites failed: 1/3\n")


def _divisor_times(factor, at=None):
    """``oracle.conjecture_sides`` with D multiplied by factor(a, b) at the
    triple ``at``, or at every triple."""
    def wrong(real):
        def sides(a, b, n):
            divisor, dividend = real(a, b, n)
            return divisor * (factor(a, b) if at in (None, (a, b, n)) else 1), dividend
        return sides
    return wrong


MISMATCHES = {
    "bigint-divisor": ([(oracle, "conjecture_sides", _divisor_times(lambda a, b: 7919, at=(3, 1, 2)))],
                       {crosscheck.suite_claims_vs_oracle: "verdict mismatch at a=3 b=1 n=2",
                        crosscheck.suite_minimal_multiplier: "minimal multiplier 7919 does not divide "
                        "3(a-b)(3a-b) = 48 at a=3, b=1, n=2; the divisibility theorem would be false"}),
    "full-ledger": ([(crosscheck, "verify_claim", lambda real: lambda claim, n: (
                         types.SimpleNamespace(holds=False) if (claim, n) == (conjecture_claim(3, 1), 2)
                         else real(claim, n)))],
                    {crosscheck.suite_claims_vs_oracle: "full-ledger verdict mismatch at a=3 b=1 n=2"}),
    # D M | M B is D | B: the oracle states the claim with multiplier 1, as the valuation routes do
    "weakened": ([(oracle, "conjecture_sides", _divisor_times(lambda a, b: 3 * (a - b) * (3 * a - b))),
                  (crosscheck, "conjecture_claim", lambda real: lambda a, b: dataclasses.replace(
                      real(a, b), multiplier_constants=(1,)))],
                 {crosscheck.suite_claims_vs_oracle: "claim unexpectedly fails at a=2 b=1 n=1",
                  crosscheck.suite_minimal_multiplier: "minimal multiplier 75 does not divide "
                  "3(a-b)(3a-b) = 15 at a=2, b=1, n=1; the divisibility theorem would be false"}),
    "congruence": ([(oracle, "exact_s", lambda real: lambda n: real(n) + (n == 5))],
                   {crosscheck.suite_congruences_vs_oracle: "S_n congruence mismatch at n=5"}),
}


@pytest.mark.parametrize("patches, first_failures", MISMATCHES.values(), ids=MISMATCHES.keys())
def test_oracle_check_reports_each_mismatch(capsys, monkeypatch, patches, first_failures):
    """Each suite's disagreement branch, forced by one wrong value (the
    routes agree on this code), is listed under its suite, and exits 1."""
    for module, name, wrong in patches:
        monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    for suite_fn, failure in first_failures.items():
        assert suite_fn().failures[0] == failure
    code, out, err = run_cli(capsys, "oracle-check")
    assert (code, err) == (1, "")
    assert all(f"    {failure}" in out.splitlines() for failure in first_failures.values())
    assert out.endswith(f"suites failed: {len(first_failures)}/3\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--a", "2", "--b", "1", "--n", "0"], "argument --n: must be a positive integer, got 0"),
        (["sweep", "--a-max", "2", "--b-max", "1", "--n-max", "1", "--seed", "-1"],
         "argument --seed: seed must fit in an unsigned 64-bit integer"),
        (["lemma-fuzz", "--samples", "1", "--seed", str(2**64)],
         "argument --seed: seed must fit in an unsigned 64-bit integer"),
    ],
    ids=["verify-n-0", "sweep-seed-negative", "lemma-fuzz-seed-2-64"],
)
def test_argument_rejections_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"binomdiv {argv[0]}: error: {message}\n")


# ---------------------------------------------------------------------------
# wall clock

@pytest.mark.parametrize(
    "argv",
    [["verify", "--a", "3", "--b", "1", "--n", "5"], ["sweep", "--a-max", "4", "--b-max", "3", "--n-max", "6"]],
    ids=["verify", "sweep"],
)
def test_one_clock_reading_in_every_format(capsys, monkeypatch, argv):
    """``_render`` reads the clock once before and once after the handler; that
    one reading is the JSON summary.seconds, the CSV column and the wall time line."""
    readings = []

    def fake_clock():
        readings.append(1000.0 + 2.5 * len(readings))
        return readings[-1]

    monkeypatch.setattr(cli.time, "perf_counter", fake_clock)
    if argv[0] == "sweep":  # a reported violation gives the sweep's CSV a row
        _fake_violations(monkeypatch, ((ParamTriple(3, 1, 5), 2),))
    shown = {}
    for fmt in ("json", "csv", "human"):
        readings.clear()
        code, shown[fmt], _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == (argv[0] == "sweep")
        assert len(readings) == 2
    assert json.loads(shown["json"])["summary"]["seconds"] == 2.5
    header, row = shown["csv"].splitlines()
    assert header.endswith(",seconds") and row.endswith(",2.500000")
    assert "wall time: 2.500s" in shown["human"].splitlines()


def test_json_seconds_count_the_results(capsys, monkeypatch):
    """A JSON report's results are built before the clock stops: ``verify``'s
    certificate rows, 4 s on a fake clock, are in summary.seconds."""
    now = [1000.0]
    monkeypatch.setattr(cli.time, "perf_counter", lambda: now[0])
    result_dict = cli._result_dict

    def slow_result_dict(*args):
        now[0] += 4.0
        return result_dict(*args)

    monkeypatch.setattr(cli, "_result_dict", slow_result_dict)
    code, out, _ = run_cli(capsys, "verify", "--a", "3", "--b", "1", "--n", "5", "--format", "json")
    assert code == 0 and json.loads(out)["summary"]["seconds"] == 4.0


# ---------------------------------------------------------------------------
# config

_DEFAULTS = {"format": "json", "jobs": 1, "seed": 42}


@pytest.mark.parametrize(
    "argv, config",
    [
        (["verify", "--a", "3", "--b", "1", "--n", "5"], {"a": 3, "b": 1, "n": 5, **_DEFAULTS}),
        (["sweep", "--a-max", "4", "--b-max", "3", "--n-max", "6"],
         {"a_max": 4, "b_max": 3, "n_max": 6, "sample": None, **_DEFAULTS}),
        (["sweep", "--a-max", "4", "--b-max", "3", "--n-max", "6", "--jobs", "2", "--seed", "9", "--sample", "5"],
         {"a_max": 4, "b_max": 3, "n_max": 6, "sample": 5, "format": "json", "jobs": 2, "seed": 9}),
        (["trace", "--a", "3", "--b", "1", "--n", "9", "--modulus", "2bn+3"],
         {"a": 3, "b": 1, "n": 9, "modulus": "2bn+3", **_DEFAULTS}),
        (["lemma-fuzz", "--samples", "2000"], {"samples": 2000, "max_den": 10**6, **_DEFAULTS}),
        (["integrality", "--num", "30,1", "--den", "15,10,6", "--n-max", "3"],
         {"num": [30, 1], "den": [15, 10, 6], "n_max": 3, **_DEFAULTS}),
        (["oracle-check", "--seed", "5"], {"format": "json", "jobs": 1, "seed": 5}),
    ],
    ids=["verify", "sweep", "sweep-options", "trace", "lemma-fuzz", "integrality", "oracle-check"],
)
def test_json_config_is_the_parsed_command_line(capsys, tmp_path, argv, config):
    """Every parsed input, defaults included, is in the config; --out is not."""
    code, _, _ = run_cli(capsys, *argv, "--format", "json", "--out", str(tmp_path / "r.json"))
    assert code == 0
    assert json.loads((tmp_path / "r.json").read_text())["config"] == config


# ---------------------------------------------------------------------------
# --out, every command

_WALL_CLOCK = re.compile(r'"seconds": [0-9.e+-]+|wall time: [0-9.]+s|,[0-9]+\.[0-9]{6}$', re.M)


@pytest.mark.parametrize(
    "argv, formats, summary",
    [
        (["verify", "--a", "3", "--b", "1", "--n", "5"], ("json", "csv", "human"),
         "verify a=3 b=1 n=5: Holds"),
        (["sweep", "--a-max", "4", "--b-max", "3", "--n-max", "6"], ("json", "csv", "human"),
         "sweep checked=36 violations=0"),
        (["trace", "--a", "3", "--b", "1", "--n", "9", "--modulus", "2bn+3"], ("json", "human"),
         "trace 2bn+3: satisfied"),
        (["lemma-fuzz", "--samples", "2000", "--max-den", "1000"], ("json", "human"),
         "lemma-fuzz violations=0"),
        (["integrality", "--num", "1,1", "--den", "2", "--n-max", "6"], ("json", "csv", "human"),
         "integrality non-integral=6/6"),
        (["oracle-check"], ("human",), "oracle-check failed-suites=0"),
    ],
    ids=["verify", "sweep", "trace", "lemma-fuzz", "integrality", "oracle-check"],
)
def test_out_file_equals_stdout_report(capsys, tmp_path, argv, formats, summary):
    for fmt in formats:
        code, report, _ = run_cli(capsys, *argv, "--format", fmt)
        path = tmp_path / f"report.{fmt}"
        out_code, out, _ = run_cli(capsys, *argv, "--format", fmt, "--out", str(path))
        assert out_code == code
        assert out == f"{summary} (report written to {path})\n"
        assert _WALL_CLOCK.sub("X", path.read_text()) == _WALL_CLOCK.sub("X", report)


# ---------------------------------------------------------------------------
# start-up: the command line is parsed before the engine loads

def _python(*argv):
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["--help"], 0, None),
        (["verify", "--help"], 0, None),
        (["integrality", "--num", "2,x", "--den", "1", "--n-max", "2"], 2,
         "binomdiv integrality: error: argument --num: expects a comma-separated integer list"),
        (["sweep", "--a-max", "25", "--b-max", "24", "--n-max", "100", "--out", "{missing}"], 2,
         "error: [Errno 2] No such file or directory: '{missing}'"),
    ],
    ids=["help", "verify-help", "usage-error", "bad-out"],
)
def test_command_line_refusals_import_no_numpy(tmp_path, argv, code, message):
    missing = str(tmp_path / "missing-dir" / "r.json")
    proc = _python("-X", "importtime", "-m", "binomdiv", *(arg.format(missing=missing) for arg in argv))
    assert proc.returncode == code
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "binomdiv.args" in imported
    assert not {m for m in imported if m.split(".")[0] == "numpy"}
    assert not {m for m in imported if m.startswith("binomdiv.")} - {"binomdiv.args"}  # no layer module
    if message:
        assert message.format(missing=missing) in proc.stderr.splitlines()[-1]


_VERIFY_7_5 = ["verify", "--a", "7", "--b", "5", "--n"]


@pytest.mark.parametrize(
    "argv",
    [[*_VERIFY_7_5, "1000123", "--format", fmt] for fmt in ("human", "json", "csv")]
    + [[*_VERIFY_7_5, "10000123"], ["lemma-fuzz", "--samples", "20000"]],
    ids=["verify-human", "verify-json", "verify-csv", "verify-human-10^7", "lemma-fuzz"],
)
def test_no_command_imports_numpy_ma(tmp_path, argv):
    """``np.unique`` without its return_* arrays, and so ``np.union1d``, imports
    numpy.ma (8-13 ms) to test for a mask; numpy.matrixlib always loads."""
    proc = _python("-X", "importtime", "-m", "binomdiv", *argv, "--out", str(tmp_path / "r"))
    assert proc.returncode == 0 and "| binomdiv.cli" in proc.stderr, proc.stderr
    assert not re.search(r"\| *numpy\.ma$", proc.stderr, flags=re.MULTILINE)


def test_import_binomdiv_loads_no_numpy():
    proc = _python("-c", "import sys, binomdiv\n"
                         "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'binomdiv'))))")
    assert (proc.returncode, proc.stdout) == (0, "['binomdiv']\n"), proc.stderr


def test_import_cli_loads_every_layer():
    """``perfbench/traced.py`` reads each layer from ``sys.modules`` after ``import binomdiv.cli``."""
    layers = ("valuation", "ratio", "theorem", "cli", "oracle", "crosscheck")
    proc = _python("-c", f"import sys, binomdiv.cli; print(all('binomdiv.' + m in sys.modules for m in {layers}))")
    assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr


def test_lazy_exports_are_the_objects_of_their_modules():
    for name in binomdiv.__all__:
        value = getattr(binomdiv, name)
        assert value.__module__.startswith("binomdiv.") and getattr(sys.modules[value.__module__], name) is value
    assert len(binomdiv.__all__) == 34 and set(binomdiv.__all__) <= set(dir(binomdiv))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        binomdiv.no_such_name
    assert binomdiv.valuation is valuation and isinstance(valuation, types.ModuleType)
