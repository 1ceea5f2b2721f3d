"""Deterministic grid runner for the registered identity cases.

Each case binds a parameter space, a tuple of ``Axis``, to a check
returning (lhs, rhs); values compare by canonical equality (Fraction,
Poly, or tuples thereof).  Probe cases evaluate several competing
variants of a statement and report which ones survive the whole grid
instead of failing the suite; they exist for statements whose printed
form is suspected to carry a typo.

A case's values are produced in one place, ``_evaluations``: it yields
(label, params, lhs, rhs) for every check of the case at every point, and
``run_case`` consumes it.  A run's counts are produced in one place too,
``SuiteResult.totals``.

Reports are deterministic for a fixed grid except for the elapsed-time
field, which ``fingerprint()`` leaves out.  Cases are independent and
side-effect free, so any subset may run in any order; the runner is
sequential and emits catalog order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from time import perf_counter
from typing import Callable

from ..rational import parse_rational

__all__ = ["Grid", "DEFAULT_GRID", "BOUNDS", "Axis", "IdentityCase", "Report", "SuiteResult"]

_SEVEN_POINT = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(2, 3),
    Fraction(-3, 2),
)


@dataclass(frozen=True)
class Grid:
    """Default parameter budgets for the identity suite.

    ``max_n`` bounds single-sum indices, ``max_n_double`` double sums,
    ``max_n_multi`` the multiparameter family.  Its budget is the smallest
    because each of its indices n is checked at every shift a, step q,
    weight list L and offset y (108 points per n on the default lists), not
    because a point is dear: the oracle's product is stepped in integers.

    Its text form (``from_text``) is ``key=value`` lines whose keys are the fields: an int
    bound, comma-separated "p/q" points, or, for ``ls``, ``;``-separated lists of them.
    """

    max_n: int = 12
    max_n_double: int = 8
    max_k: int = 4
    max_r: int = 4
    max_a: int = 3
    max_n_multi: int = 4
    qs: tuple = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3))
    xs: tuple = _SEVEN_POINT
    ls: tuple = (
        (Fraction(1),),
        (Fraction(1, 2), Fraction(2)),
        (Fraction(1), Fraction(1), Fraction(1, 2)),
    )
    ys_multi: tuple = (Fraction(0), Fraction(1, 2), Fraction(-3, 2))

    def __post_init__(self):
        # a bound below its first index or an empty list empties the
        # grid of every case that reads it, and those cases would pass
        # vacuously.  A float would fail part-way through a run and a bool
        # bound would run as n <= 1, so both are refused here, as is a weight
        # list that the multiparameter family would refuse part-way.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in BOUNDS:
                if not _is_int(value):
                    raise ValueError(f"grid bound {f.name} must be an int, got {value!r}")
                low = 1 if f.name in ("max_k", "max_a") else 0
                if value < low:
                    raise ValueError(f"grid bound {f.name} must be >= {low}, got {value}")
            elif not value:
                raise ValueError(f"grid list {f.name} must not be empty")
            elif f.name == "ls":
                for weights in value:
                    if not (isinstance(weights, tuple) and weights and all(map(_is_point, weights))
                            and all(weights)):
                        raise ValueError(f"grid list ls must hold non-empty tuples of nonzero int or "
                                         f"Fraction weights, got {weights!r}")
            else:
                for point in value:
                    if not _is_point(point):
                        raise ValueError(f"grid list {f.name} must hold int or Fraction points, "
                                         f"got {point!r}")
                # refused here, not part-way through a run at the first case that reads q = 0
                if f.name == "qs" and 0 in value:
                    raise ValueError("grid list qs must not hold 0: G21.mpb1-mpb4 read the "
                                     "bivariate second-kind values, which need q != 0")

    @classmethod
    def from_text(cls, text: str) -> Grid:
        """The default grid with the ``key=value`` lines of ``text`` applied, blank and
        ``#`` lines skipped; bad text, or a value the grid refuses, raises ``ValueError``."""
        overrides: dict = {}
        for line in map(str.strip, text.splitlines()):
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ValueError(f"bad config line (want key=value): {line!r}")
            key, value = key.strip(), value.strip()
            if key in BOUNDS:
                overrides[key] = int(value)
            elif key == "ls":
                overrides[key] = tuple(_points(key, weights) for weights in value.split(";"))
            elif key in {f.name for f in fields(cls)}:
                overrides[key] = _points(key, value)
            else:
                raise ValueError(f"unknown config key {key!r}")
        return cls(**overrides)


# every field with an int default is a bound, and every other a list of points
BOUNDS = tuple(f.name for f in fields(Grid) if isinstance(f.default, int))


def _points(key: str, text: str) -> tuple:
    items = text.split(",") if text else []
    if not all(items):
        raise ValueError(f"empty item in grid list {key}: {text!r}")
    return tuple(map(parse_rational, items))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_point(value) -> bool:
    return _is_int(value) or isinstance(value, Fraction)


DEFAULT_GRID = Grid()


def _render(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(_render(v) for v in value) + ")"
    return str(value)


def _params_str(params: dict) -> str:
    return ", ".join(f"{k}={_render(v)}" for k, v in params.items())


@dataclass(frozen=True, slots=True)
class Axis:
    """One parameter of a case's point space, named as the check's argument.

    An int axis runs from ``start`` to ``stop // per - less``, or to ``cap``
    if that is smaller.  A value axis runs over ``values``, a ``Grid`` list
    given by name or a fixed tuple, kept to |v| <= ``cap``.  ``stop`` and
    ``cap`` are each an int, the name of a ``Grid`` bound, or the name of an
    earlier axis of the case."""

    name: str
    stop: int | str | None = None
    start: int = 0
    per: int = 1
    less: int = 0
    cap: int | str | None = None
    values: tuple | str | None = None

    def span(self, grid: Grid, point: dict):
        """The values on the grid; a bound naming an earlier axis reads ``point``."""
        stop, cap = self.stop, self.cap
        if isinstance(cap, str):
            cap = point[cap] if cap in point else getattr(grid, cap)
        if self.values is None:
            if isinstance(stop, str):
                stop = point[stop] if stop in point else getattr(grid, stop)
            top = stop // self.per - self.less
            return range(self.start, (top if cap is None else min(top, cap)) + 1)
        values = getattr(grid, self.values) if isinstance(self.values, str) else self.values
        return values if cap is None else [v for v in values if abs(v) <= cap]


@dataclass(frozen=True)
class IdentityCase:
    """One registered identity (or probe) over the product of its axes."""

    id: str
    description: str
    axes: tuple
    check: Callable | None = None
    variants: dict | None = None  # probe cases only

    @property
    def group(self) -> str:
        """The group that prefixes the id: "G04" for "G04.int1"."""
        return self.id.split(".", 1)[0]

    @property
    def probe(self) -> bool:
        return self.variants is not None

    @property
    def checks(self) -> dict:
        """The checks by label: a probe's variants, otherwise ``{None: check}``."""
        return self.variants if self.probe else {None: self.check}

    def points(self, grid: Grid) -> list[dict]:
        """The product of the axes on the grid, the first outermost, built level
        by level: an axis is spanned once per level, or per value of the earlier
        axes its bounds name.  No point is a ``ValueError``, not a vacuous pass."""
        level = [{}]
        for axis in self.axes:
            name, out, spans = axis.name, [], {}
            for p in level:
                key = p.get(axis.stop), p.get(axis.cap)
                if key not in spans:
                    spans[key] = axis.span(grid, p)
                for v in spans[key]:
                    point = p.copy()  # faster than {**p, name: v}
                    point[name] = v
                    out.append(point)
            level = out
        if not level:
            raise ValueError(f"case {self.id} has no point on this grid")
        return level


@dataclass
class Report:
    case_id: str
    group: str
    points: int
    failures: list = field(default_factory=list)
    millis: float = 0.0  # elapsed time, to the microsecond
    finding: str | None = None
    probe: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        out = {
            "id": self.case_id,
            "group": self.group,
            "points": self.points,
            "failures": self.failures,
            "millis": self.millis,
        }
        if self.probe:
            out["probe"] = True
            out["finding"] = self.finding
        return out

    def fingerprint(self) -> dict:
        """Everything except the elapsed time; used for determinism checks."""
        out = self.to_dict()
        out.pop("millis")
        return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _evaluations(case: IdentityCase, points: list):
    """(label, params, lhs, rhs) for each point, and at each point for each
    check of ``case.checks`` in its order."""
    checks = case.checks.items()
    for params in points:
        for label, fn in checks:
            lhs, rhs = fn(**params)
            yield label, params, lhs, rhs


def run_case(case: IdentityCase, grid: Grid) -> Report:
    start = perf_counter()
    stats = dict.fromkeys(case.checks, 0)  # failing points per variant
    points = case.points(grid)
    failures: list = []
    for label, params, lhs, rhs in _evaluations(case, points):
        if not lhs == rhs:
            stats[label] += 1
            if not case.probe:
                failures.append({"params": _params_str(params), "lhs": _render(lhs), "rhs": _render(rhs)})
    finding = None
    if case.probe:
        holds = [label for label, bad in stats.items() if bad == 0]
        fails = [f"{label} ({bad}/{len(points)} points fail)" for label, bad in stats.items() if bad]
        finding = "holds: " + (", ".join(holds) if holds else "none")
        if fails:
            finding += "; fails: " + ", ".join(fails)
    millis = round((perf_counter() - start) * 1000, 3)
    return Report(case.id, case.group, len(points), failures, millis, finding, case.probe)


@dataclass
class SuiteResult:
    reports: list
    grid: Grid

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    @property
    def failures(self) -> int:
        return sum(len(r.failures) for r in self.reports)

    def group_summary(self) -> list[dict]:
        groups: dict[str, dict] = {}
        for r in self.reports:
            g = groups.setdefault(
                r.group, {"group": r.group, "cases": 0, "points": 0, "failures": 0, "probes": 0}
            )
            g["cases"] += 1
            g["points"] += r.points
            g["failures"] += len(r.failures)
            if r.probe:
                g["probes"] += 1
        return [groups[k] for k in sorted(groups, key=lambda s: int(s[1:]))]

    def findings(self) -> list[dict]:
        return [
            {"id": r.case_id, "finding": r.finding} for r in self.reports if r.probe
        ]

    def fingerprint(self) -> dict:
        """Each case's sha256 of ``json.dumps(Report.fingerprint(), sort_keys=True)``, in
        catalog order, and the suite's: the sha256 of the ``"{id} {digest}\\n"`` lines in id
        order.  Two runs on one grid with the same outcomes give equal fingerprints."""
        cases = {r.case_id: _sha256(json.dumps(r.fingerprint(), sort_keys=True)) for r in self.reports}
        suite = _sha256("".join(f"{cid} {d}\n" for cid, d in sorted(cases.items())))
        return {"suite_sha256": suite, "cases": cases}

    def totals(self) -> dict:
        """The run's counts: cases, points, failing points and probe findings."""
        return {
            "cases": len(self.reports),
            "points": sum(r.points for r in self.reports),
            "failures": self.failures,
            "probe_findings": sum(1 for r in self.reports if r.probe and r.finding),
        }

    def to_dict(self) -> dict:
        totals = self.totals()
        return {
            "reports": [r.to_dict() for r in self.reports],
            "summary": {
                "cases": totals["cases"],
                "points": totals["points"],
                "failures": totals["failures"],
                "groups": self.group_summary(),
                "findings": self.findings(),
                "ok": self.ok,
                "fingerprint": self.fingerprint()["suite_sha256"],
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)
