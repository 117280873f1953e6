"""Shared deterministic numerics: Gaussian tails, root finding, quadrature.

Small, dependency-light building blocks used across the analysis modules,
among them ``Record``, the frozen base of every parameter and result record.
The Gaussian tail pair comes from the standard library (``math.erfc``,
``statistics.NormalDist``).  ``solve_root`` is plain bisection, deterministic
to the last bit.  The contour scale of the field policies is a Newton solve
(``protection_multi._constraint``) that falls back on it only if
its steps do not settle; the tests use it as an independent reference.

``np`` is the package's one numpy handle, and every module takes numpy
from here.  It is a ``lazy_module``: numpy is loaded at its first attribute
access, not by ``import coexist``, so loading a scenario and the commands
that compute without arrays never pay for it.  The package registers its
field, Monte Carlo and WiFi modules the same way.  An ``import numpy``
statement in the package would load numpy at once, since the import system
reads the module's ``__spec__``; so would ``isinstance(np, ...)``, which
reads its ``__class__``.  The first access takes no lock on older CPythons
(3.11 among them), so a thread pool touches ``np`` before it starts its
workers.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
from operator import attrgetter
from typing import Any, Callable, Iterable, Sequence, Tuple


def lazy_module(name: str) -> Any:
    """Module ``name`` if it is imported, else a module in its place that loads it at first use.

    Until then its type is LazyLoader's subclass of ``types.ModuleType``.
    """
    imported = sys.modules.get(name)
    if imported is not None:
        return imported
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a later ``import name`` gets this module
    spec.loader.exec_module(module)
    return module


np = lazy_module("numpy")

TWO_PI = 2.0 * math.pi


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen ``Record``."""


class Record:
    """Frozen record: a frozen dataclass's behaviour without generated code.

    A subclass's fields are its annotated names, in order; a class value is
    that field's default, shared by the instances that omit it.  Records are
    built by keyword or position, then checked by ``__post_init__``; they
    compare equal when of the same class with equal fields, hash by their
    fields, print as ``Name(field=value, ...)`` and refuse assignment.

    A subclass that names a scenario-schema section in ``_schema_section`` is
    bound to it: before ``__post_init__``, each of its ``float`` fields is
    checked against the section's key of the same name by
    ``config.check_field``, which raises the CLI's ``ValidationError``;
    ``config`` sets ``_check_field`` when it is imported, and ``import
    coexist`` imports ``config``, so it is set before a caller builds a record.
    """

    _fields: Tuple[str, ...] = ()
    _schema_section = ""
    _check_field: Callable[[str, Any], None]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        annotations = cls.__dict__.get("__annotations__", {})
        cls._fields = fields = tuple(annotations)
        section = cls._schema_section  # a bound record's float fields, with their paths
        cls._schema_paths = [
            (n, f"{section}.{n}") for n in fields if section and annotations[n] == "float"
        ]
        cls._blank = dict.fromkeys(fields)
        cls._defaults = {n: cls.__dict__[n] for n in fields if n in cls.__dict__}
        # the field values, compared and hashed (a bare value for one field)
        cls._key = attrgetter(*fields)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        # one dict store, not one per field; the blank's keys fix the field
        # order and are the interned names attribute reads look up by identity
        values = {**self._blank, **kwargs}
        if args or len(kwargs) != len(values) or len(values) != len(self._fields):
            values = self._bind(args, kwargs)
        object.__setattr__(self, "__dict__", values)
        if self._schema_paths:
            check_field = self._check_field
            for name, path in self._schema_paths:
                check_field(path, values[name])
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> dict:
        """The fields, in order, of a call that passes some by position or omits some."""
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        given = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in cls._blank:
                raise TypeError(f"{name}() got an unexpected keyword argument '{key}'")
            if key in given:
                raise TypeError(f"{name}() got multiple values for argument '{key}'")
            given[key] = value
        values = {**cls._defaults, **given}
        for key in fields:
            if key not in values:
                raise TypeError(f"{name}() missing required argument '{key}'")
        return {key: values[key] for key in fields}

    def __post_init__(self) -> None:
        """Check the fields; a subclass raises ValueError naming a bad one."""

    def replace(self, **changes: Any) -> Any:
        """A record of the same class with ``changes`` applied, checked anew."""
        return type(self)(**{**vars(self), **changes})

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        values = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class NoSignChange(ValueError):
    """The supplied bracket does not straddle a sign change."""


class NoConvergence(RuntimeError):
    """A solver did not converge within its iteration limit."""


class DegenerateFit(ValueError):
    """Regression input does not span more than a single abscissa."""


def q_tail(x: float) -> float:
    """Upper-tail probability Q(x) = P(Z > x) of the standard normal.

    Implemented as erfc(x/sqrt(2))/2 (Abramowitz & Stegun 26.2.29), which
    stays accurate deep into the tail (Q(40) underflows cleanly to 0.0
    instead of producing NaN).
    """
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def q_inverse(p: float) -> float:
    """Inverse of :func:`q_tail` for scalar probabilities in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"q_inverse requires 0 < p < 1, got {p}")
    return -_standard_normal().inv_cdf(p)


@functools.cache
def _standard_normal():
    from statistics import NormalDist  # with decimal and fractions, ~3 ms to import

    return NormalDist()


def db_to_linear(value_db: float) -> float:
    """Convert a decibel power ratio to linear."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Convert a linear power ratio to decibels (-inf for zero)."""
    if value == 0.0:
        return float("-inf")
    return 10.0 * math.log10(value)


class RootBracket(Record):
    """Search interval and stopping rule for :func:`solve_root`.

    tol_rel is relative to the magnitude of the bracket endpoints, so the
    solver behaves sensibly for roots anywhere from metres to megametres.
    """

    lo: float
    hi: float
    tol_rel: float = 1e-12
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")
        if not self.tol_rel > 0.0:
            raise ValueError("tol_rel must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def solve_root(f: Callable[[float], float], bracket: RootBracket) -> float:
    """Find the root of ``f`` inside ``bracket`` by bisection.

    Bisection needs only a sign change, so it serves as the fallback and
    the slow, independent reference for the faster solvers; halving is
    deterministic to the last bit for identical inputs.

    Raises NoSignChange when f(lo) and f(hi) have the same (nonzero) sign,
    NoConvergence when max_iter bisections do not shrink the interval to
    tol_rel.
    """
    lo, hi = bracket.lo, bracket.hi
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoSignChange(
            f"f({lo}) = {flo} and f({hi}) = {fhi} have the same sign"
        )
    for _ in range(bracket.max_iter):
        mid = 0.5 * (lo + hi)
        scale = max(abs(lo), abs(hi), 1e-300)
        if (hi - lo) <= bracket.tol_rel * scale:
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    raise NoConvergence(
        f"no convergence to tol_rel={bracket.tol_rel} in {bracket.max_iter} bisections"
    )


def periodic_rule(values: np.ndarray) -> float:
    """Integral over [0, 2*pi) of an integrand sampled at theta_i = 2*pi*i/n.

    The trapezoid rule on this wrapped grid; every azimuth integral uses it.
    """
    return float(values.sum()) * (TWO_PI / values.size)


def fit_power_law(
    samples: Iterable[Tuple[float, float]]
) -> Tuple[float, float]:
    """Least-squares fit of attenuation samples to l(r) = k0 * r**(-alpha).

    ``samples`` holds (distance_m, attenuation_linear) pairs, all strictly
    positive.  The fit is ordinary least squares on log-log axes,
    log l = log k0 - alpha * log r; returns (k0, alpha).
    """
    pts = [(float(r), float(l)) for r, l in samples]
    if len(pts) < 2:
        raise ValueError("need at least two samples")
    for r, l in pts:
        if r <= 0.0 or l <= 0.0:
            raise ValueError("distances and attenuations must be positive")
    log_r = np.log([r for r, _ in pts])
    log_l = np.log([l for _, l in pts])
    if np.ptp(log_r) == 0.0:
        raise DegenerateFit("all sample distances are identical")
    slope, intercept = np.polyfit(log_r, log_l, 1)
    return float(math.exp(intercept)), float(-slope)


def log_log_r_squared(x: Sequence[float], y: Sequence[float]) -> float:
    """Coefficient of determination of a straight-line fit in log-log axes."""
    lx = np.log10(np.asarray(x, dtype=float))
    ly = np.log10(np.asarray(y, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - ss_res / ss_tot
