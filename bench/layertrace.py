"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each ``polytangent`` module, the
arithmetic methods of ``Polynomial`` and ``RationalFunction`` and the
``RuleReport.holds`` property.  Modules import functions by name
(``from .tangency import derivative``) and ``rules.VERIFIERS`` holds them
in a dict, so a wrapper is installed at every place the original object
is bound, and every binding is restored by :meth:`Tracer.uninstall`.

Spans are aggregated as they close rather than stored: per layer the
number of calls, the time of outermost calls (``total``), the time not
covered by traced child calls (``self``), and the exceptions raised.  A
layer whose inputs set its cost also records the largest degree or
coefficient size it saw.  Counts and times are reported per served
request, so that a faster program, which serves more requests in the
same run, does not read as one doing more work.
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
from time import perf_counter_ns

# (module, function) -> layer name
FUNCTIONS = {
    ("cli", "main"): "cli.main",
    ("cli", "build_parser"): "cli.build_parser",
    ("parser", "parse"): "parser.parse",
    ("parser", "lower_poly"): "parser.lower_poly",
    ("parser", "lower_ratfun"): "parser.lower_ratfun",
    ("polynomial", "polynomial_gcd"): "polynomial.gcd",
    ("rational", "exact"): "rational.exact",
    ("rational", "to_decimal"): "rational.to_decimal",
    ("tangency", "taylor_shift"): "tangency.taylor_shift",
    ("tangency", "tangent_at"): "tangency.tangent_at",
    ("tangency", "derivative"): "tangency.derivative",
    ("dual", "eval_poly"): "dual.eval_poly",
    ("dual", "eval_elementary"): "dual.eval_elementary",
    ("rules", "verify_sum"): "rules.verify_sum",
    ("rules", "verify_product"): "rules.verify_product",
    ("rules", "verify_quotient"): "rules.verify_quotient",
    ("rules", "verify_chain"): "rules.verify_chain",
    ("plotting", "render_figure"): "plotting.render_figure",
    ("decomposition", "quotient_table"): "decomposition.quotient_table",
}

# (module, class, attribute) -> layer name
METHODS = {
    ("polynomial", "Polynomial", "__init__"): "polynomial.init",
    ("polynomial", "Polynomial", "__add__"): "polynomial.add",
    ("polynomial", "Polynomial", "__mul__"): "polynomial.mul",
    ("polynomial", "Polynomial", "__pow__"): "polynomial.pow",
    ("polynomial", "Polynomial", "__divmod__"): "polynomial.divmod",
    ("polynomial", "Polynomial", "__call__"): "polynomial.call",
    ("polynomial", "Polynomial", "__eq__"): "polynomial.eq",
    ("polynomial", "RationalFunction", "__init__"): "polynomial.ratfun_canon",
}

PROPERTIES = {("rules", "RuleReport", "holds"): "rules.holds"}

# Spans directly under tangent_at that re-check the certificate.
CERTIFICATE_CHILDREN = {"polynomial.pow", "polynomial.mul", "polynomial.add", "polynomial.eq"}

MODULES = ("cli", "decomposition", "dual", "parser", "plotting", "polynomial", "rational",
           "rules", "tangency")

ALL = ("cli-small", "exact-core", "ratfun-rules")

# metric name, layer, field, unit, better, workloads on which the layer must run.
# Counts and times are per served request; sizes are maxima over the run.
PER_LAYER = [
    ("cli.build_parser.self_s", "cli.build_parser", "self_ns", "s/req", "lower", ALL),
    ("cli.main.self_s", "cli.main", "self_ns", "s/req", "lower", ALL),
    ("parser.parse.calls", "parser.parse", "calls", "calls/req", "lower", ALL),
    ("parser.parse.self_s", "parser.parse", "self_ns", "s/req", "lower", ALL),
    ("parser.lower_poly.total_s", "parser.lower_poly", "total_ns", "s/req", "lower",
     ("exact-core", "ratfun-rules")),
    ("parser.lower_ratfun.total_s", "parser.lower_ratfun", "total_ns", "s/req", "lower",
     ("ratfun-rules",)),
    ("parser.lower_poly.wasted_s", "parser.lower_poly", "wasted_ns", "s/req", "lower",
     ("ratfun-rules",)),
    ("parser.lower_poly.fallback_ratio", "parser.lower_poly", "fallback", "ratio", "lower",
     ("ratfun-rules",)),
    ("polynomial.mul.calls", "polynomial.mul", "calls", "calls/req", "lower", ALL),
    ("polynomial.mul.self_s", "polynomial.mul", "self_ns", "s/req", "lower", ALL),
    ("polynomial.mul.max_degree", "polynomial.mul", "max_degree", "degree", "lower",
     ("exact-core",)),
    ("polynomial.mul.max_coeff_bits", "polynomial.mul", "max_bits", "bits", "lower",
     ("exact-core",)),
    ("polynomial.init.calls", "polynomial.init", "calls", "calls/req", "lower", ALL),
    ("polynomial.init.self_s", "polynomial.init", "self_ns", "s/req", "lower", ALL),
    ("polynomial.add.self_s", "polynomial.add", "self_ns", "s/req", "lower", ALL),
    ("rational.exact.calls", "rational.exact", "calls", "calls/req", "lower", ALL),
    ("polynomial.divmod.calls", "polynomial.divmod", "calls", "calls/req", "lower",
     ("ratfun-rules",)),
    ("polynomial.divmod.self_s", "polynomial.divmod", "self_ns", "s/req", "lower",
     ("ratfun-rules",)),
    ("polynomial.gcd.calls", "polynomial.gcd", "calls", "calls/req", "lower", ("ratfun-rules",)),
    ("polynomial.gcd.total_s", "polynomial.gcd", "total_ns", "s/req", "lower", ("ratfun-rules",)),
    ("polynomial.gcd.max_coeff_bits", "polynomial.gcd", "max_bits", "bits", "lower",
     ("ratfun-rules",)),
    ("polynomial.ratfun_canon.total_s", "polynomial.ratfun_canon", "total_ns", "s/req", "lower",
     ("ratfun-rules",)),
    ("polynomial.call.self_s", "polynomial.call", "self_ns", "s/req", "lower",
     ("exact-core", "ratfun-rules")),
    ("polynomial.pow.total_s", "polynomial.pow", "total_ns", "s/req", "lower",
     ("exact-core", "ratfun-rules")),
    ("tangency.taylor_shift.calls", "tangency.taylor_shift", "calls", "calls/req", "lower",
     ("exact-core",)),
    ("tangency.taylor_shift.self_s", "tangency.taylor_shift", "self_ns", "s/req", "lower",
     ("exact-core",)),
    ("tangency.taylor_shift.max_degree", "tangency.taylor_shift", "max_degree", "degree",
     "lower", ("exact-core",)),
    ("tangency.tangent_at.total_s", "tangency.tangent_at", "total_ns", "s/req", "lower",
     ("exact-core",)),
    ("tangency.tangent_at.certificate_s", "tangency.tangent_at", "certificate_ns", "s/req",
     "lower", ("exact-core",)),
    ("tangency.derivative.total_s", "tangency.derivative", "total_ns", "s/req", "lower",
     ("exact-core", "ratfun-rules")),
    ("dual.eval_poly.total_s", "dual.eval_poly", "total_ns", "s/req", "lower",
     ("exact-core", "ratfun-rules")),
    ("rules.verify_sum.total_s", "rules.verify_sum", "total_ns", "s/req", "lower",
     ("ratfun-rules",)),
    ("rules.verify_product.total_s", "rules.verify_product", "total_ns", "s/req", "lower",
     ("ratfun-rules",)),
    ("rules.verify_quotient.total_s", "rules.verify_quotient", "total_ns", "s/req", "lower",
     ("ratfun-rules",)),
    ("rules.verify_chain.total_s", "rules.verify_chain", "total_ns", "s/req", "lower",
     ("ratfun-rules",)),
    ("rules.holds_ratio", "rules.holds", "true_ratio", "ratio", "higher", ("ratfun-rules",)),
    ("plotting.render_figure.total_s", "plotting.render_figure", "total_ns", "s/req", "lower",
     ("cli-small",)),
    ("decomposition.quotient_table.total_s", "decomposition.quotient_table", "total_ns", "s/req",
     "lower", ("cli-small",)),
    ("rational.to_decimal.self_s", "rational.to_decimal", "self_ns", "s/req", "lower",
     ("cli-small",)),
    ("dual.eval_elementary.calls", "dual.eval_elementary", "calls", "calls/req", "lower",
     ("cli-small",)),
    ("dual.eval_elementary.errors", "dual.eval_elementary", "errors", "calls/req", "lower",
     ("cli-small",)),
]


class Stat:
    __slots__ = ("calls", "outer_calls", "outer_errors", "errors", "total_ns", "self_ns",
                 "wasted_ns", "certificate_ns", "max_degree", "max_bits", "trues")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)


def _bits(coeffs):
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
               default=0)


def _coeffs(value):
    return getattr(value, "coeffs", None) or ((value,) if hasattr(value, "denominator") else ())


def _note_mul(stat, args, result):
    if hasattr(result, "coeffs"):
        stat.max_degree = max(stat.max_degree, len(result.coeffs) - 1)
        stat.max_bits = max(stat.max_bits, _bits(_coeffs(args[0])), _bits(_coeffs(args[1])))


def _note_gcd(stat, args, result):
    stat.max_bits = max(stat.max_bits, _bits(args[0].coeffs), _bits(args[1].coeffs))


def _note_degree(stat, args, result):
    stat.max_degree = max(stat.max_degree, len(args[0].coeffs) - 1)


def _note_true(stat, args, result):
    stat.trues += result is True


NOTES = {
    "polynomial.mul": _note_mul,
    "polynomial.gcd": _note_gcd,
    "tangency.taylor_shift": _note_degree,
    "rules.holds": _note_true,
}


class Tracer:
    """Installs wrappers into a loaded ``polytangent`` and aggregates their spans."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []  # [layer, child time] per open span
        self._depth: dict[str, int] = {}
        self._undo: list = []

    def _wrap(self, layer, fn):
        stat = self.stats.setdefault(layer, Stat())
        stack, depth, note = self._stack, self._depth, NOTES.get(layer)
        depth[layer] = 0
        tangent_at = self.stats.setdefault("tangency.tangent_at", Stat())
        in_certificate = layer in CERTIFICATE_CHILDREN

        def wrapper(*args, **kwargs):
            frame = [layer, 0]
            stack.append(frame)
            depth[layer] += 1
            failed = True
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                duration = perf_counter_ns() - t0
                stack.pop()
                depth[layer] -= 1
                stat.calls += 1
                stat.self_ns += duration - frame[1]
                if failed:
                    stat.errors += 1
                if not depth[layer]:
                    stat.outer_calls += 1
                    stat.total_ns += duration
                    if failed:
                        stat.outer_errors += 1
                        stat.wasted_ns += duration
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    if in_certificate and parent[0] == "tangency.tangent_at":
                        tangent_at.certificate_ns += duration
                if note is not None and not failed:
                    t1 = perf_counter_ns()
                    note(stat, args, result)
                    if stack:  # keep the bookkeeping out of the parent's self time
                        stack[-1][1] += perf_counter_ns() - t1

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, original, replacement, package):
        """Point every module global and module-level dict entry at the wrapper."""
        for module in package:
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, name, original))
                    setattr(module, name, replacement)
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            self._undo.append((value, key, original))
                            value[key] = replacement

    def install(self):
        package = [m for name, m in sys.modules.items()
                   if name == "polytangent" or name.startswith("polytangent.")]
        modules = {name: sys.modules[f"polytangent.{name}"] for name in MODULES}
        for (mod, attr), layer in FUNCTIONS.items():
            original = getattr(modules[mod], attr)
            self._rebind(original, self._wrap(layer, original), package)
        for (mod, cls_name, attr), layer in METHODS.items():
            cls = getattr(modules[mod], cls_name)
            original = cls.__dict__[attr]
            wrapper = self._wrap(layer, original)
            for name, value in list(cls.__dict__.items()):
                if value is original:  # also catches aliases such as __radd__ = __add__
                    self._undo.append((cls, name, original))
                    setattr(cls, name, wrapper)
        for (mod, cls_name, attr), layer in PROPERTIES.items():
            cls = getattr(modules[mod], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, property(self._wrap(layer, original.fget)))

    def uninstall(self):
        for target, name, original in reversed(self._undo):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)
        self._undo.clear()

    def value(self, layer, field, requests):
        stat = self.stats.get(layer) or Stat()
        if field in ("max_degree", "max_bits"):
            return getattr(stat, field)
        if field == "fallback":
            return stat.outer_errors / stat.outer_calls if stat.outer_calls else 0.0
        if field == "true_ratio":
            return stat.trues / stat.calls if stat.calls else 0.0
        scale = 1e-9 if field.endswith("_ns") else 1
        return getattr(stat, field) * scale / requests

    def uncovered(self, workload):
        """Layers this workload is meant to load that recorded no calls."""
        missing = sorted({layer for _, layer, _, _, _, wls in PER_LAYER
                          if workload in wls and not (self.stats.get(layer) or Stat()).calls})
        if workload == "exact-core" and not self.stats["tangency.tangent_at"].certificate_ns:
            missing.append("tangency.tangent_at.certificate_s")
        if workload == "ratfun-rules" and not self.stats["parser.lower_poly"].outer_errors:
            missing.append("parser.lower_poly.fallback_ratio")
        return missing


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s+polytangent\.(\w+)$")


def import_self_seconds(src: str, runs: int = 5) -> dict:
    """Median self time of each module import in fresh interpreters (-X importtime)."""
    code = f"import sys; sys.path.insert(0, {src!r}); import polytangent.cli"
    samples: dict[str, list] = {name: [] for name in MODULES}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, timeout=60, check=True)
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) * 1e-6)
    return {name: statistics.median(values) if values else 0.0
            for name, values in samples.items()}
