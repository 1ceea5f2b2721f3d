"""Span tracer for the benchmark's traced repetition.

The tracer lives in the benchmark, not in the package: it wraps, from
outside, the public functions of every loaded ``polycauchy`` module, the
arithmetic methods of ``Poly`` and ``Series`` (patched once, on the
class), and counts calls to the arithmetic dunders of
``fractions.Fraction``.  The package imports names by value
(``from .stirling import gsn1``), so each wrapper replaces its original in
every ``polycauchy.*`` namespace that holds it, not only in its home
module.

Every wrapped call is a span with a key naming the layer part it belongs
to (``poly.mul``, ``stirling.triangle``, ``identities.group.G04``, ...).
Per key the tracer keeps the call count, the self time (the span's
duration minus the part its child spans cover) and the inclusive time of
the outermost span of that key, so recursion is not counted twice.  The
totals stay in memory and are read once, at the end of the repetition.

Installing patches the process for good; use it only in a process that
exits after the traced repetition.
"""

from __future__ import annotations

import fractions
import functools
import sys
import time
import types

LAYERS = ("rational", "poly", "series", "stirling", "bernoulli", "cauchy", "harmonic",
          "identities", "cli")

GROUPS = tuple(f"G{i:02d}" for i in range(1, 23))
CONSTRUCTIONS = ("gsn", "integral", "series", "binomial_conv", "theorem1")

# Keys for public functions whose key is not "<layer>.other".
_FUNCTION_KEYS = {
    ("rational", "parse_rational"): "rational.parse_format",
    ("rational", "format_rational"): "rational.parse_format",
    ("stirling", "stirling1"): "stirling.triangle",
    ("stirling", "stirling2"): "stirling.triangle",
    ("stirling", "central_u"): "stirling.triangle",
    ("stirling", "lah"): "stirling.triangle",
    ("stirling", "triangle_rows"): "stirling.triangle",
    ("stirling", "save_triangle_caches"): "stirling.triangle",
    ("stirling", "load_triangle_caches"): "stirling.triangle",
    ("cauchy", "multiparam_cauchy"): "cauchy.multiparam",
}
# Every other public function of these layers is one key per layer.
_LAYER_KEYS = {"stirling": "stirling.gsn", "bernoulli": "bernoulli", "harmonic": "harmonic",
               "identities": "identities.engine", "cli": "cli"}

_POLY_METHODS = {
    "__mul__": "poly.mul", "__rmul__": "poly.mul",
    "__add__": "poly.add", "__radd__": "poly.add", "__sub__": "poly.add",
    "__rsub__": "poly.add", "__neg__": "poly.add",
    "affine_compose": "poly.compose", "stretch": "poly.compose",
    "__pow__": "poly.other", "__truediv__": "poly.other", "derivative": "poly.other",
    "integrate_01": "poly.other", "map_coeffs": "poly.other",
}
_SERIES_METHODS = {
    "__mul__": "series.mul", "exp": "series.exp", "reciprocal": "series.reciprocal",
    "__add__": "series.other", "__sub__": "series.other", "__neg__": "series.other",
    "scale": "series.other", "pow_int": "series.other",
}
_FRACTION_DUNDERS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__",
    "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
)

_GROUP_KEYS = {g: f"identities.group.{g}" for g in GROUPS}
_CONSTRUCTION_KEYS = {c: f"cauchy.construction.{c}" for c in CONSTRUCTIONS}

# Count metrics repeat exactly between two traced runs of one seed.
COUNT_METRICS = (
    "rational.fraction_ops", "poly.mul_calls", "poly.eval_calls", "series.mul_calls",
    "series.exp_calls", "stirling.memo_lookups", "stirling.memo_hit_ratio",
    "cauchy.number_memo_lookups", "cauchy.number_memo_hit_ratio", "bernoulli.memo_lookups",
    "bernoulli.memo_hit_ratio", "cli.bytes_written", "memo.entries_end",
)


def _is_package_module(name: str) -> bool:
    return name == "polycauchy" or name.startswith("polycauchy.")


def _layer(module_name: str) -> str | None:
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 and parts[1] in LAYERS else None


def _is_function(obj) -> bool:
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


def _group_key(case_id) -> str:
    return _GROUP_KEYS.get(str(case_id).split(".", 1)[0], "identities.engine")


def _key_of(layer: str, name: str):
    """Span key for a public function: a string, or a function of the call's arguments."""
    if (layer, name) == ("cauchy", "cauchy_poly"):
        return lambda args, kwargs: _CONSTRUCTION_KEYS.get(
            args[3] if len(args) > 3 else kwargs.get("construction", "gsn"), "cauchy.other")
    if (layer, name) == ("identities", "verify"):
        return lambda args, kwargs: _group_key(args[0] if args else kwargs["case_id"])
    if (layer, name) == ("identities", "run_case"):
        return lambda args, kwargs: _GROUP_KEYS.get(
            (args[0] if args else kwargs["case"]).group, "identities.engine")
    return _FUNCTION_KEYS.get((layer, name)) or _LAYER_KEYS.get(layer, f"{layer}.other")


class Tracer:
    """In-memory span totals for one traced repetition."""

    def __init__(self):
        self.totals: dict[str, list[int]] = {}  # key -> [calls, self_ns, outer_ns]
        self.fraction_ops = 0
        self.points = 0
        self._stack: list[list] = []  # open spans: [key, child_ns]
        self._depth: dict[str, int] = {}
        self._memos: dict[str, object] = {}
        self._memo_start: dict[str, tuple[int, int]] = {}

    def _wrap(self, fn, key, on_result=None):
        stack, depth, totals = self._stack, self._depth, self.totals
        clock = time.perf_counter_ns
        fixed = isinstance(key, str)

        def wrapper(*args, **kwargs):
            k = key if fixed else key(args, kwargs)
            frame = [k, 0]
            stack.append(frame)
            depth[k] = depth.get(k, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                depth[k] -= 1
                total = totals.get(k)
                if total is None:
                    total = totals[k] = [0, 0, 0]
                total[0] += 1
                total[1] += duration - frame[1]
                if not depth[k]:
                    total[2] += duration
                if stack:
                    stack[-1][1] += duration
            if on_result is not None:
                on_result(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _count_fraction_op(self, fn):
        def wrapper(*args):
            self.fraction_ops += 1
            return fn(*args)

        return functools.update_wrapper(wrapper, fn)

    def _add_points(self, report):
        self.points += report.points

    def install(self):
        """Patch every loaded polycauchy module, Poly, Series and Fraction."""
        from polycauchy.poly import Poly
        from polycauchy.series import Series

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and _is_package_module(name)]
        wrappers = {}  # id(original) -> wrapper
        for module in modules:
            layer = _layer(module.__name__)
            if layer is None:
                continue
            for name, obj in vars(module).items():
                if (name.startswith("_") or not _is_function(obj)
                        or obj.__module__ != module.__name__):
                    continue
                if hasattr(obj, "cache_info"):
                    self._memos[f"{layer}.{name}"] = obj
                counts_points = (layer, name) == ("identities", "run_case")
                wrappers[id(obj)] = self._wrap(obj, _key_of(layer, name),
                                               self._add_points if counts_points else None)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if _is_function(obj) and id(obj) in wrappers:
                    setattr(module, name, wrappers[id(obj)])
        self._memo_start = {name: self._memo_counts(fn) for name, fn in self._memos.items()}

        for cls, methods in ((Poly, _POLY_METHODS), (Series, _SERIES_METHODS)):
            for name, key in methods.items():
                setattr(cls, name, self._wrap(cls.__dict__[name], key))
        # a Poly argument makes __call__ a composition, not an evaluation
        Poly.__call__ = self._wrap(
            Poly.__dict__["__call__"],
            lambda args, kwargs: "poly.compose" if isinstance(args[1], Poly) else "poly.eval")
        for name in _FRACTION_DUNDERS:
            setattr(fractions.Fraction, name,
                    self._count_fraction_op(fractions.Fraction.__dict__[name]))

    @staticmethod
    def _memo_counts(fn) -> tuple[int, int]:
        info = fn.cache_info()
        return info.hits, info.misses

    def _memo_use(self, prefix: str) -> tuple[int, float]:
        """Lookups made since install by the memos named with this prefix, and their hit ratio."""
        hits = lookups = 0
        for name, fn in self._memos.items():
            if name.startswith(prefix):
                h, m = self._memo_counts(fn)
                h0, m0 = self._memo_start[name]
                hits += h - h0
                lookups += (h - h0) + (m - m0)
        return lookups, (hits / lookups if lookups else 0.0)

    def _sum(self, prefix: str, column: int) -> float:
        """Seconds (column 1: self, 2: outermost inclusive) over keys with this prefix."""
        return sum(t[column] for k, t in self.totals.items() if k.startswith(prefix)) / 1e9

    def _calls(self, key: str) -> int:
        return self.totals.get(key, (0,))[0]

    def metrics(self, bytes_written: int) -> dict[str, float]:
        """Per-layer metrics for the repetition (trace.overhead_s is added by the caller)."""
        s_lookups, s_ratio = self._memo_use("stirling.")
        c_lookups, c_ratio = self._memo_use("cauchy.cauchy_number")
        b_lookups, b_ratio = self._memo_use("bernoulli.")
        group_seconds = self._sum("identities.group.", 2)
        out = {
            "rational.fraction_ops": self.fraction_ops,
            "rational.parse_format_s": self._sum("rational.parse_format", 2),
            "poly.mul_calls": self._calls("poly.mul"),
            "poly.mul_self_s": self._sum("poly.mul", 1),
            "poly.add_self_s": self._sum("poly.add", 1),
            "poly.eval_calls": self._calls("poly.eval"),
            "poly.eval_self_s": self._sum("poly.eval", 1),
            "poly.compose_self_s": self._sum("poly.compose", 1),
            "series.mul_calls": self._calls("series.mul"),
            "series.mul_self_s": self._sum("series.mul", 1),
            "series.exp_calls": self._calls("series.exp"),
            "series.exp_self_s": self._sum("series.exp", 1),
            "series.reciprocal_self_s": self._sum("series.reciprocal", 1),
            "stirling.triangle_s": self._sum("stirling.triangle", 2),
            "stirling.gsn_s": self._sum("stirling.gsn", 2),
            "stirling.memo_hit_ratio": s_ratio,
            "stirling.memo_lookups": s_lookups,
        }
        for c in CONSTRUCTIONS:
            out[f"cauchy.construction_s.{c}"] = self._sum(_CONSTRUCTION_KEYS[c], 2)
        out.update({
            "cauchy.multiparam_s": self._sum("cauchy.multiparam", 2),
            "cauchy.number_memo_hit_ratio": c_ratio,
            "cauchy.number_memo_lookups": c_lookups,
            "bernoulli.self_s": self._sum("bernoulli", 1),
            "bernoulli.memo_hit_ratio": b_ratio,
            "bernoulli.memo_lookups": b_lookups,
            "harmonic.self_s": self._sum("harmonic", 1),
        })
        for g in GROUPS:
            out[f"identities.group_s.{g}"] = self._sum(_GROUP_KEYS[g], 2)
        out.update({
            "identities.engine_self_s": self._sum("identities.", 1),
            "identities.points_per_s": self.points / group_seconds if group_seconds else 0.0,
            "cli.self_s": self._sum("cli", 1),
            "cli.bytes_written": bytes_written,
            "memo.entries_end": sum(fn.cache_info().currsize for fn in self._memos.values()),
        })
        return out

    def spans(self) -> dict[str, dict]:
        """The per-key span totals, for the trace file written at the end of the run."""
        return {k: {"calls": t[0], "self_s": t[1] / 1e9, "inclusive_s": t[2] / 1e9}
                for k, t in sorted(self.totals.items())}
