"""Run one benchmark step in this interpreter with layer spans recorded.

    python perfbench/trace_runner.py -m zhat.cli <cli args...>
    python perfbench/trace_runner.py -c "<python code>"

Wraps the public functions of every zhat layer module, in every ``zhat.*``
namespace that binds them, plus the ``CompiledSet`` methods. Each call
records a span [name, start, end, parent index, counts]. Spans stay in
memory and are written to stderr at exit as one line: SPAN_MARKER + JSON.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

SPAN_MARKER = "@@zhat-spans "

LAYERS = ("cli", "verify", "density", "measure", "analytic", "setdsl", "supernatural", "_primes")
# span and metric names must start with a letter or digit: _primes is "primes"
LAYER_LABELS = tuple(layer.lstrip("_") for layer in LAYERS)

# called once per element (per integer, per term, per divisor): a span each
# would cost more than the work it measures
PER_ELEMENT = {"density.harmonic", "primes.valuation", "analytic.von_mangoldt"}

COMPILED_SET_METHODS = (
    "mask_upto", "members_in_box", "residue_image", "clopen_image_exact",
    "residue_count", "interval_view", "ie_view",
)


def _counts(name: str, call: inspect.BoundArguments, result) -> dict:
    """Work counts recorded at the layer boundary."""
    a = call.arguments
    if name == "setdsl.residue_image":
        return {"cells": a["m"] ** a["self"].dim, "residues": result.count}
    if name == "setdsl.mask_upto":
        return {"cells": a["n"]}
    if name in ("measure.multiples_measure_ie", "analytic.de_delta_bracket"):
        return {"subsets": 2 ** len(a["moduli"])}
    if name == "measure.closure_measure_trace":
        return {"levels": len(result.records)}
    raise KeyError(name)


COUNTED = {
    "setdsl.residue_image", "setdsl.mask_upto", "measure.multiples_measure_ie",
    "analytic.de_delta_bracket", "measure.closure_measure_trace",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        sig = inspect.signature(fn) if name in COUNTED else None

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if sig is not None:
                span[4] = _counts(name, sig.bind(*args, **kwargs), result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        mods = {label: importlib.import_module(f"zhat.{layer}")
                for layer, label in zip(LAYERS, LAYER_LABELS)}
        importlib.import_module("zhat")
        replace: dict[int, object] = {}
        for label, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{label}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in PER_ELEMENT
                        or inspect.isgeneratorfunction(obj)):
                    continue
                replace[id(obj)] = self.wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "zhat" and not modname.startswith("zhat."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        cls = mods["setdsl"].CompiledSet
        for meth in COMPILED_SET_METHODS:
            setattr(cls, meth, self.wrap(f"setdsl.{meth}", getattr(cls, meth)))

    def dump(self, stream) -> None:
        stream.write(SPAN_MARKER + json.dumps(self.spans) + "\n")
        stream.flush()


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        if argv[:2] == ["-m", "zhat.cli"]:
            import zhat.cli

            code = zhat.cli.main(argv[2:])
        elif argv[:1] == ["-c"] and len(argv) == 2:
            exec(compile(argv[1], "<step>", "exec"), {"__name__": "__main__"})
            code = 0
        else:
            print("usage: trace_runner.py -m zhat.cli ARGS... | -c CODE", file=sys.stderr)
            return 2
        sys.stdout.flush()
    finally:
        tracer.dump(sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
