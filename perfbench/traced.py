"""Run one binomdiv command in-process with every public function traced.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH):

    python3 perfbench/traced.py SPANS_FILE -- verify --a 7 --b 5 --n 1000

Imports the package (timing the import), replaces every public function
of the layer modules with a wrapper that records a span (name, start,
end, parent span), runs ``binomdiv.cli.main(argv)``, writes the spans
to SPANS_FILE and exits with the command's exit code.

The modules import each other's functions by name (``from .valuation
import primes_upto``), so a function is replaced in every module
namespace that holds it, not only where it is defined.  Spans are kept
in flat arrays while the command runs and written once at the end; the
file is a little-endian length-prefixed JSON header followed by the
arrays named in it.
"""

from __future__ import annotations

import time

_import_started = time.perf_counter()
import binomdiv.cli  # noqa: E402  (imports every layer module)

IMPORT_S = time.perf_counter() - _import_started

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402

LAYERS = ("valuation", "ratio", "theorem", "cli", "oracle", "crosscheck")

# Work counts recorded from a traced function's result.
AMOUNTS = {
    "valuation.primes_upto": len,
    "ratio.verify_claim": lambda cert: len(cert.entries),
}

ARRAYS = (("name_id", "i"), ("parent", "q"), ("start", "d"), ("end", "d"), ("amount", "q"))


class SpanRecorder:
    """Spans of one process, in call order, as parallel arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.arrays = {field: array(code) for field, code in ARRAYS}
        self.stack = [-1]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        measure = AMOUNTS.get(name)
        ids, parents, starts, ends, amounts = (self.arrays[f] for f, _ in ARRAYS)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            amounts.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if measure is not None:
                amounts[index] = measure(result)
            return result

        return traced

    def write(self, path: str) -> None:
        header = json.dumps(
            {
                "import_s": IMPORT_S,
                "count": len(self.arrays["start"]),
                "names": self.names,
                "arrays": [list(pair) for pair in ARRAYS],
            }
        ).encode()
        with open(path, "wb") as out:
            out.write(len(header).to_bytes(8, "little"))
            out.write(header)
            for field, _ in ARRAYS:
                self.arrays[field].tofile(out)


def install(recorder: SpanRecorder) -> None:
    """Replace each public function of each layer wherever it is bound."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "binomdiv"]
    for layer in LAYERS:
        module = sys.modules[f"binomdiv.{layer}"]
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            wrapper = recorder.wrap(f"{layer}.{name}", fn)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, attr, wrapper)


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: traced.py SPANS_FILE -- ARGV...", file=sys.stderr)
        return 2
    recorder = SpanRecorder()
    install(recorder)
    code = binomdiv.cli.main(sys.argv[3:])
    sys.stdout.flush()
    recorder.write(sys.argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main())
