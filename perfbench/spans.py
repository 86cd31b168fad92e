"""Per-function spans for the traced run, installed from outside the library.

Each traced function is replaced by a wrapper that times the call and
charges its duration to the calling traced function, so self time is
inclusive time minus the time of traced children.  Spans are aggregated
in memory per (function, parent): QuadRat.sign alone runs about 90 000
times per audited radicand, so no per-call record is kept.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) pairs; "Class.method" patches the class attribute.
TRACED = (
    ("qfield", "QuadRat.sign"), ("qfield", "QuadRat.floor"),
    ("cfrac", "expand"), ("cfrac", "audit_identities"), ("cfrac", "derive_shift_constants"),
    ("ostrowski", "encode_nat"), ("ostrowski", "decode_nat"), ("ostrowski", "decode_real"),
    ("ostrowski", "mult_nat_by_sqrt"), ("ostrowski", "make_digits"),
    ("ostrowski", "validate"), ("ostrowski", "encode_real"),
    ("shiftcalc", "embed"), ("shiftcalc", "check_recover_frac"),
    ("shiftcalc", "check_recover_nat"), ("shiftcalc", "times_sqrt_frac"),
    ("shiftcalc", "times_sqrt_nat"), ("shiftcalc", "times_sqrt_real"),
    ("shiftcalc", "prefix_nat"), ("shiftcalc", "window_digit"),
    ("shiftcalc", "residue_class_probe"),
    ("harness", "run_suite"),
    ("cli", "main"),
)

ROOT_SPAN = "<benchmark>"


class Tracer:
    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, inclusive_s, self_s]
        self.encoded: set = set()  # distinct (d, n) passed to encode_nat
        self._stack = [[ROOT_SPAN, 0.0]]
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        encoded = self.encoded if name == "ostrowski.encode_nat" else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if encoded is not None:
                encoded.add((args[1].d, args[0]))
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                key = (name, parent[0])
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]

        return span

    def install(self) -> None:
        """Patch every traced function, and every copy of it that a module
        of the package imported by name, with its span wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ostro" or n.startswith("ostro."))]
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            owner = sys.modules[f"ostro.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def totals(self) -> dict[str, list]:
        """Per function: [calls, self_s], summed over parents."""
        out = {f"{m}.{a}": [0, 0.0] for m, a in TRACED}
        for (name, _), (calls, _, self_s) in self.spans.items():
            out[name][0] += calls
            out[name][1] += self_s
        return out

    def table(self) -> list[dict]:
        return [
            {"fn": name, "parent": parent, "calls": calls,
             "inclusive_s": incl, "self_s": self_s}
            for (name, parent), (calls, incl, self_s) in sorted(self.spans.items())
        ]
