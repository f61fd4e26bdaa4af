"""Benchmark of the binomdiv command line, end to end and layer by layer.

Run from the root of a checkout (no install needed; ``src`` is put on
the children's PYTHONPATH):

    python3 perfbench/run.py --workload sweep-desk --seed 1 --seconds 45 --trace 0

A *pass* runs a workload's commands once, one at a time, each as a fresh
``python -m binomdiv ...`` process (closed loop, one client, so at most
two processes exist: this driver and one child).  Passes repeat until
``--seconds`` have elapsed, with at least two passes.

``--trace 0`` reports the end-to-end metrics, tracing off:

    wall_s       median over passes of the pass's wall seconds
    cpu_s        median over passes of its children's user + sys seconds
    peak_rss_mb  median over passes of the largest child max-RSS (MiB),
                 read per child with wait4, not from RUSAGE_CHILDREN
    setup_s      median seconds of ``python -m binomdiv --help``
                 (interpreter start, package import, parser build),
                 timed once before every pass and at least nine times

Children run with ``OPENBLAS_NUM_THREADS=1`` (see ``run_child``).

``--trace 1`` alternates an untraced pass with a traced pass, in which
``perfbench/traced.py`` runs the same commands through
``binomdiv.cli.main(argv)`` with every public function of the layer
modules wrapped in a span recorder.  Self time is a span's duration
minus that of its child spans.  It reports per-layer self times (median
over traced passes) and exact counts, which must repeat in every pass;
``cli.report_bytes`` counts the report bytes less its wall-clock digits.

Every command's output goes through a gate: exit code 0, a ``Holds``
verdict or zero violations, the expected check count, and a report that
is byte-identical across the passes of a run once its wall-clock numbers
are cut.  ``verify`` reports are compared with a ledger computed here
with numpy (every certificate entry of the JSON report; the entry count
and least margin of the human one), and a seeded sample of that
ledger, present and absent primes, is recomputed with pure-Python
Legendre sums.  A command that fails any of these counts in ``failed``;
``failed / attempted`` is the error rate, printed in the table (it is not
a metric because it is 0 on a correct program).

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it are a table of the
metrics and a ``# meta`` line with run metadata: a pure-Python
reference loop timed after every pass (to tell host drift from a
regression), nproc and interpreter and numpy versions.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "binomdiv"
MIN_PASSES = 2
MIN_SETUPS = 9

# ---------------------------------------------------------------------------
# correctness gates


def _legendre(m: int, p: int) -> int:
    total, q = 0, m // p
    while q:
        total += q
        q //= p
    return total


def _nu(m: int, p: int) -> int:
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return k


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _prime_factors(m: int) -> list[int]:
    found, d = [], 2
    while d * d <= m:
        if m % d == 0:
            found.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return found + ([m] if m > 1 else [])


def _claim_entry(a: int, b: int, n: int, p: int) -> tuple[int, int]:
    """(required, available) of the divisibility claim at prime p.

    Divisor (2bn+1)(2bn+3)C(2bn,bn); dividend
    3(a-b)(3a-b)C(2an,an)C(an,bn) = 3(a-b)(3a-b)(2an)!/((an)!(bn)!((a-b)n)!).
    """
    required = (
        _nu(2 * b * n + 1, p) + _nu(2 * b * n + 3, p)
        + _legendre(2 * b * n, p) - 2 * _legendre(b * n, p)
    )
    available = (
        _nu(3, p) + _nu(a - b, p) + _nu(3 * a - b, p)
        + _legendre(2 * a * n, p) - _legendre(a * n, p)
        - _legendre(b * n, p) - _legendre((a - b) * n, p)
    )
    return required, available


def _sieve(m: int) -> np.ndarray:
    is_prime = np.ones(m + 1, dtype=bool)
    is_prime[:2] = False
    is_prime[4::2] = False
    for i in range(3, math.isqrt(m) + 1, 2):
        if is_prime[i]:
            is_prime[i * i::2 * i] = False
    return np.flatnonzero(is_prime)


def _legendre_all(m: int, primes: np.ndarray) -> np.ndarray:
    """Legendre's sum of m! at every prime of the ascending array."""
    total = np.zeros_like(primes)
    power = primes.copy()
    k = int(np.searchsorted(primes, m, side="right"))
    while k:  # the primes with p^j <= m are a prefix, and p^j * p stays below 2^63
        total[:k] += m // power[:k]
        power[:k] *= primes[:k]
        k = int(np.searchsorted(power[:k], m, side="right"))
    return total


def reference_ledger(a: int, b: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(primes, required, available) of the claim at every prime p <= 2bn+3.

    Beyond 2bn+3 the divisor requires nothing.  Computed here with numpy,
    apart from the package's engine, to check that a certificate lists
    exactly the primes with required >= 1.
    """
    bound = 2 * b * n + 3
    primes = _sieve(bound)
    required = _legendre_all(2 * b * n, primes) - 2 * _legendre_all(b * n, primes)
    available = (
        _legendre_all(2 * a * n, primes) - _legendre_all(a * n, primes)
        - _legendre_all(b * n, primes) - _legendre_all((a - b) * n, primes)
    )
    for column, values in ((required, (2 * b * n + 1, 2 * b * n + 3)), (available, (3, a - b, 3 * a - b))):
        for value in values:
            for p in _prime_factors(value):
                column[np.searchsorted(primes, p)] += _nu(value, p)
    return primes, required, available


def _sample_problems(a: int, b: int, n: int, seed: int, ledger: tuple[np.ndarray, ...]) -> list[str]:
    """Recompute a seeded sample of the reference ledger in pure Python.

    The sample takes the first and last primes with required >= 1 (the
    certificate's entries), 64 others of them, and 64 primes with
    required 0, which a certificate must leave out.
    """
    primes, required, available = ledger
    rng = random.Random(seed)
    present, absent = np.flatnonzero(required > 0), np.flatnonzero(required == 0)
    sample = {present[0], present[-1]}
    for group in (present, absent):
        sample.update(group[j] for j in rng.sample(range(len(group)), min(64, len(group))))
    problems = []
    for i in sorted(sample):
        p, expected = int(primes[i]), (int(required[i]), int(available[i]))
        if not _is_prime(p) or _claim_entry(a, b, n, p) != expected:
            problems.append(f"at p={p} the reference ledger has {expected}, pure Python "
                            f"{_claim_entry(a, b, n, p)}, or p is not prime")
    return problems


_ENTRY = re.compile(rb'"available": (\d+),\s*"p": (\d+),\s*"required": (\d+)')


def check_verify(a: int, b: int, n: int, seed: int, fmt: str) -> Callable[[bytes], list[str]]:
    """Gate of ``verify --format json|human`` against the reference ledger.

    JSON: the certificate's entries must equal, entry for entry, the
    reference primes with required >= 1.  Human: the verdict, entry
    count and least margin must match, and the table must be elided.
    """
    def check(report: bytes) -> list[str]:
        ledger = reference_ledger(a, b, n)
        primes, required, available = ledger
        keep = required > 0
        problems = _sample_problems(a, b, n, seed, ledger)
        if not (available >= required).all():
            problems.append("the reference ledger has a violation")
        if fmt == "json":
            problems += [
                f"missing {needle.decode()!r}"
                for needle in (b'"verdict": "Holds"', b'"holds": true', b'"checked": 1,', b'"violations": 0')
                if needle not in report
            ]
            got = np.array(_ENTRY.findall(report), dtype=np.int64).reshape(-1, 3).T
            want = np.stack([available[keep], primes[keep], required[keep]])
            if got.shape != want.shape or (got != want).any():
                problems.append(f"certificate ({got.shape[1]} entries) differs from the reference "
                                f"ledger ({want.shape[1]} entries)")
        else:
            expected = "\n".join([
                "verdict: Holds",
                f"primes with required > 0: {int(keep.sum())}",
                f"min margin (available - required): {int((available - required)[keep].min())}",
                "(entry table elided; rerun with --format json --out FILE)",
            ])
            if f"\n{expected}\n" not in report.decode():
                problems.append(f"report lacks the lines {expected!r}")
        return problems

    return check


def check_sweep_json(a_max: int, b_max: int, n_max: int) -> Callable[[bytes], list[str]]:
    expected = n_max * sum(min(a - 1, b_max) for a in range(2, a_max + 1))

    def check(report: bytes) -> list[str]:
        summary = json.loads(report)["summary"]
        problems = []
        if summary["checked"] != expected:
            problems.append(f"checked {summary['checked']} triples, expected {expected}")
        if summary["violations"] != 0:
            problems.append(f"{summary['violations']} violations")
        return problems

    return check


def check_last_line(expected: str) -> Callable[[bytes], list[str]]:
    def check(report: bytes) -> list[str]:
        last = report.decode().rstrip("\n").rsplit("\n", 1)[-1]
        return [] if last == expected else [f"last line {last!r}, expected {expected!r}"]

    return check


def check_oracle(report: bytes) -> list[str]:
    lines = report.decode().rstrip("\n").split("\n")
    problems = [f"suite not ok: {ln.strip()}" for ln in lines[:-1] if not ln.endswith(" ok") and not ln.startswith(" ")]
    if not re.fullmatch(r"suites failed: 0/[1-9][0-9]*", lines[-1]):
        problems.append(f"last line {lines[-1]!r}")
    return problems


_WALL_CLOCK = re.compile(rb'(?<="seconds": )[0-9.eE+-]+|(?<=wall time: )[0-9.]+(?=s\n)')


def normalize(report: bytes) -> bytes:
    """The report without its wall-clock numbers.

    ``summary.seconds`` (JSON) and the "wall time" line (human) are the
    only bytes allowed to differ between repeats; their numbers are cut.
    """
    return _WALL_CLOCK.sub(b"", report)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[bytes], list[str]]
    writes_report: bool = False  # True: --out FILE is appended; else the report is stdout


def _offset(seed: int, salt: str) -> int:
    return random.Random(f"{salt}:{seed}").randrange(1000)


def workload_commands(name: str, seed: int) -> list[Command]:
    """The commands of one pass.  Inputs depend only on (name, seed).

    ``verify`` decides two large instances: n ~ 10^6 rendered as a 47 MB
    JSON certificate (report rendering, ledger format) and n ~ 10^7 with
    the table elided (sieve, batch Legendre sums, ledger memory).
    ``sweep-desk`` makes many small calls: the fixed 30,000-triple
    acceptance box (per-call verdict path) and the desk checks, the only
    commands that reach ``is_integral_at``, the oracle and the cross-check
    suites.  Each pass takes about 10 s, so a run averages several.
    """
    if name == "verify":
        n_json = 10**6 + _offset(seed, "json")
        n_human = 10**7 + _offset(seed, "human")
        return [
            Command(("verify", "--a", "7", "--b", "5", "--n", str(n_json), "--format", "json"),
                    check_verify(7, 5, n_json, seed, "json"), writes_report=True),
            Command(("verify", "--a", "7", "--b", "5", "--n", str(n_human), "--format", "human"),
                    check_verify(7, 5, n_human, seed, "human")),
        ]
    if name == "sweep-desk":
        return [
            Command(("sweep", "--a-max", "25", "--b-max", "24", "--n-max", "100",
                     "--jobs", "1", "--format", "json"),
                    check_sweep_json(25, 24, 100), writes_report=True),
            Command(("integrality", "--num", "30,1", "--den", "15,10,6", "--n-max", "3000"),
                    check_last_line("non-integral at 0 of 3000 values of n")),
            Command(("oracle-check", "--seed", str(seed)), check_oracle),
            Command(("lemma-fuzz", "--samples", "3000000", "--seed", str(seed)),
                    check_last_line("violations: 0")),
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify", "sweep-desk")

# ---------------------------------------------------------------------------
# running children


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(argv: list[str], work: Path, stdout: Path) -> Child:
    """Run one process to completion; its rusage comes from wait4."""
    # binomdiv makes no BLAS call, but numpy's OpenBLAS starts one thread per
    # CPU at import; whether that thread gets the idle core decides ~0.1 s
    # of cpu_s and ~3 MB of RSS per child, so the measurement fixes it at one.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    with open(stdout, "wb") as out, open(work / "stderr.txt", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=work)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def setup_seconds(work: Path) -> float:
    child = run_child([sys.executable, "-m", "binomdiv", "--help"], work, work / "help.txt")
    if child.code != 0:
        raise RuntimeError("python -m binomdiv --help failed")
    return child.wall_s


def reference_loop() -> float:
    """A fixed pure-Python loop; its time tracks how fast the host is now."""
    started = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    elapsed = time.perf_counter() - started
    if acc != 78_778:
        raise RuntimeError("reference loop computed a wrong value")
    return elapsed


# ---------------------------------------------------------------------------
# spans


def add_spans(path: Path, stats: dict[str, dict]) -> float:
    """Add a traced.py spans file to per-function totals; return its import seconds."""
    with open(path, "rb") as src:
        header = json.loads(src.read(int.from_bytes(src.read(8), "little")))
        count = header["count"]
        arrays = {}
        for name, code in header["arrays"]:
            arrays[name] = array(code)
            arrays[name].fromfile(src, count)
    starts, ends, parents = arrays["start"], arrays["end"], arrays["parent"]
    child_s = [0.0] * count
    for i in range(count):
        if parents[i] >= 0:
            child_s[parents[i]] += ends[i] - starts[i]
    for i in range(count):
        s = stats.setdefault(header["names"][arrays["name_id"][i]],
                             {"calls": 0, "total_s": 0.0, "self_s": 0.0, "amount_sum": 0, "amount_max": 0})
        duration = ends[i] - starts[i]
        s["calls"] += 1
        s["total_s"] += duration
        s["self_s"] += duration - child_s[i]
        s["amount_sum"] += arrays["amount"][i]
        s["amount_max"] = max(s["amount_max"], arrays["amount"][i])
    return header["import_s"]


LAYERS = ("valuation", "ratio", "theorem", "cli", "oracle", "crosscheck")
SELF_TIMED = (
    "valuation.primes_upto", "valuation.nu_factorial_over_primes", "valuation.factorize",
    "valuation.lemma_fuzz", "ratio.ratio_valuation_over_primes", "ratio.claim_holds",
    "ratio.verify_claim", "ratio.is_integral_at", "theorem.run_sweep",
    "theorem.conjecture_claim", "theorem.verify_triple", "cli.main",
    "oracle.big_binomial", "crosscheck.run_all",
)
COUNTED = (
    "valuation.nu_factorial_over_primes", "valuation.factorize",
    "ratio.ratio_valuation_over_primes", "ratio.claim_holds", "ratio.is_integral_at",
    "theorem.conjecture_claim", "oracle.big_binomial",
)

# Per-layer metrics: name -> unit.  Counts must repeat exactly between passes.
PER_LAYER = {
    **{f"{fn}.self_s": "s" for fn in SELF_TIMED},
    **{f"{fn}.calls": "count" for fn in COUNTED},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "valuation.primes_upto.primes": "count",
    "ratio.verify_claim.ledger_entries": "count",
    "ratio.claim_holds.us_per_call": "us",
    "cli.report_bytes": "bytes",
    "trace.spans": "count",
    "proc.import_s": "s",
    "trace.overhead_s": "s",
}
EXACT_UNITS = ("count", "bytes")


def layer_metrics(stats: dict[str, dict], report_bytes: int) -> dict[str, float]:
    def get(fn: str, key: str):
        return stats.get(fn, {}).get(key, 0)

    metrics: dict[str, float] = {f"{fn}.self_s": get(fn, "self_s") for fn in SELF_TIMED}
    metrics.update({f"{fn}.calls": get(fn, "calls") for fn in COUNTED})
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(s["self_s"] for fn, s in stats.items() if fn.startswith(layer + "."))
    calls = get("ratio.claim_holds", "calls")
    metrics["ratio.claim_holds.us_per_call"] = 1e6 * get("ratio.claim_holds", "total_s") / calls if calls else 0.0
    metrics["valuation.primes_upto.primes"] = get("valuation.primes_upto", "amount_max")
    metrics["ratio.verify_claim.ledger_entries"] = get("ratio.verify_claim", "amount_sum")
    metrics["cli.report_bytes"] = report_bytes
    metrics["trace.spans"] = sum(s["calls"] for s in stats.values())
    return metrics


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    report_bytes: int = 0
    stats: dict = field(default_factory=dict)
    import_s: list = field(default_factory=list)


class Runner:
    def __init__(self, commands: list[Command], work: Path) -> None:
        self.commands = commands
        self.work = work
        self.attempted = 0
        self.failed = 0
        # argv -> (digest of the first report, the gate's findings on it)
        self.verdicts: dict[tuple[str, ...], tuple[bytes, list[str]]] = {}
        self.problems: list[str] = []

    def run_pass(self, traced: bool) -> Pass:
        result = Pass()
        for i, command in enumerate(self.commands):
            stdout = self.work / f"stdout-{i}.txt"
            report_path = self.work / f"report-{i}" if command.writes_report else stdout
            argv = list(command.argv) + (["--out", str(report_path)] if command.writes_report else [])
            spans = self.work / f"spans-{i}.bin"
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "traced.py"), str(spans), "--", *argv]
            else:
                argv = [sys.executable, "-m", "binomdiv", *argv]
            child = run_child(argv, self.work, stdout)
            result.wall_s += child.wall_s
            result.cpu_s += child.cpu_s
            result.rss_mb = max(result.rss_mb, child.rss_mb)
            self.attempted += 1
            report = report_path.read_bytes() if report_path.exists() else None
            if command.writes_report and report is not None:
                report_path.unlink()
            # the bytes written, less the wall-clock digits, so that the count repeats exactly
            result.report_bytes += len(normalize(report or b""))
            problems = self._gate(command, child.code, report)
            if problems:
                self.failed += 1
                stderr = (self.work / "stderr.txt").read_text(errors="replace").strip()[-500:]
                self.problems.append(f"{' '.join(command.argv)}: {'; '.join(problems)} {stderr}")
            if traced and child.code == 0:
                result.import_s.append(add_spans(spans, result.stats))
        return result

    def _gate(self, command: Command, code: int, report: bytes | None) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        if report is None:
            return ["no report written"]
        digest = hashlib.sha256(normalize(report)).digest()
        if command.argv not in self.verdicts:  # first report of this command
            try:
                problems = command.check(report)
            except (ValueError, KeyError, UnicodeDecodeError) as exc:
                problems = [f"unreadable report: {exc!r}"]
            self.verdicts[command.argv] = (digest, problems)
        first, problems = self.verdicts[command.argv]
        if first != digest:
            return ["report differs from the first pass of this run"]
        return problems


# ---------------------------------------------------------------------------
# main


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: {PACKAGE} not found; run from a binomdiv checkout", file=sys.stderr)
        return 2
    work = BENCH_DIR / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args: argparse.Namespace, work: Path) -> int:
    runner = Runner(workload_commands(args.workload, args.seed), work)
    setup_seconds(work)  # warm-up: fills the bytecode and file caches
    setups: list[float] = []
    passes: list[Pass] = []
    traced: list[Pass] = []
    reference: list[float] = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < args.seconds:
        if args.trace:
            passes.append(runner.run_pass(traced=False))
            traced.append(runner.run_pass(traced=True))
        else:
            setups.append(setup_seconds(work))
            passes.append(runner.run_pass(traced=False))
        reference.append(reference_loop())

    if args.trace:
        per_pass = [layer_metrics(t.stats, t.report_bytes) for t in traced]
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name == "proc.import_s":
                values = [statistics.median([s for t in traced for s in t.import_s] or [0.0])]
            elif name == "trace.overhead_s":
                values = [t.wall_s - u.wall_s for t, u in zip(traced, passes)]
            else:
                values = [m[name] for m in per_pass]
            if unit in EXACT_UNITS:
                if len(set(values)) != 1:
                    runner.problems.append(f"{name} differs between passes: {values}")
                metrics[name] = {"value": values[0], "unit": unit}
            else:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        while len(setups) < MIN_SETUPS:
            setups.append(setup_seconds(work))
        metrics = {
            "wall_s": {"value": statistics.median([p.wall_s for p in passes]), "unit": "s"},
            "cpu_s": {"value": statistics.median([p.cpu_s for p in passes]), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median([p.rss_mb for p in passes]), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }

    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {runner.attempted} commands")
    for name, metric in metrics.items():
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'error_rate':<42} {runner.failed / runner.attempted:>14.6g} "
          f"failed/attempted ({runner.failed}/{runner.attempted})")
    meta = {
        "reference_loop_s": reference,
        "reference_loop_median_s": statistics.median(reference),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "argv": [list(c.argv) for c in runner.commands],
    }
    print("# meta " + json.dumps(meta))
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
