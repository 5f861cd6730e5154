"""Concentration measures, their axiom harness, and derivative-based checks.

A measure scores how far an allocation sits from equal weights.  Two
orientations coexist: *index* measures grow with concentration (zero at
equal weights for the normalized ones), *utility* measures grow with
evenness.  Every registry entry declares its orientation and whether it
moves strictly whenever concentration genuinely changes; those
declarations are empirical claims, and ``axiom_suite`` plus
``schur_ostrowski_check`` exist to test them rather than trust them.

The registry also knows one deliberately mis-declared control measure
(``log_control``, reachable by id but not listed): a root-mean-square of
log-weights whose declared utility orientation contradicts its actual
monotonicity, so a sound harness must flag it.

Every measure reads an allocation's integer view ``(scale, nums)``.  A
rational measure (Simpson, HHI, Hoover, Gini) has one exact form on that
view, which returns its value as ``(num, den)`` on ints: ``evaluate`` is
num / den, correctly rounded, and ``exact_value`` is Fraction(num, den).
The axiom harness scores its sampled pairs and nonuniform draws straight
on their views, so it builds no weight vector and no Fraction for them.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

from .errors import DomainError, UnknownMeasure
from .simplex import (
    WeightVector,
    _clearly_nonuniform,
    _hoover_exact,
    _Ints,
    _majorization_pair_ints,
    _rational_strings,
    _strict_pair_ints,
    _sum_of_squares,
    as_fraction,
    random_weight_vector,
    uniform_vector,
)

#: Default step for central finite differences.
FD_STEP = 1e-5
#: Tolerance on the pairwise sign products in the Schur-Ostrowski test.
SIGN_PRODUCT_TOL = 1e-8
#: Tolerance when checking a function is permutation-symmetric in floats.
SYMMETRY_TOL = 1e-10
#: Anything closer to zero than this is treated as an exact zero / tie.
EQUALITY_TOL = 1e-12


class Direction(Enum):
    """Which way a measure moves as an allocation concentrates."""

    INDEX = "SchurConvexIndex"
    UTILITY = "SchurConcaveUtility"


AmbientFn = Callable[[Sequence[float]], float]
#: The integer view ``(scale, nums)`` in, the value as ``(num, den)`` out.
ExactFn = Callable[[int, Sequence[int]], tuple[int, int]]


@dataclass(frozen=True)
class MeasureSpec:
    """A named measure with evaluation rules and declared behavior.

    ``ambient`` evaluates on any positive float vector near the simplex
    (no renormalization), which is what finite-difference probing needs.
    ``exact`` is present only for measures whose value is rational: it
    takes an allocation's integer view ``(scale, nums)``, in lowest terms
    or not, and returns the value as ``(num, den)`` with den > 0, so
    ``evaluate`` is num / den and ``exact_value`` is Fraction(num, den).
    """

    id: str
    direction: Direction
    strict: bool
    ambient: AmbientFn
    exact: ExactFn | None = None


# --------------------------------------------------------------------------
# Formulas.  Ambient versions take raw floats; exact versions take an
# integer view (scale, nums) and return the value as (num, den).
# --------------------------------------------------------------------------


def _variance_ambient(xs: Sequence[float]) -> float:
    n = len(xs)
    share = 1.0 / n
    return math.fsum((x - share) ** 2 for x in xs) / n


def _stddev_ambient(xs: Sequence[float]) -> float:
    return math.sqrt(_variance_ambient(xs))


def _coeff_variation_ambient(xs: Sequence[float]) -> float:
    mean = math.fsum(xs) / len(xs)
    if mean == 0:
        raise DomainError("coefficient of variation needs a nonzero mean")
    return _stddev_ambient(xs) / mean


def _entropy_ambient(xs: Sequence[float]) -> float:
    # 0 * log 0 := 0, the standard continuous extension to the boundary.
    return -math.fsum(x * math.log(x) for x in xs if x != 0.0)


def _entropy_index_ambient(xs: Sequence[float]) -> float:
    return math.log(len(xs)) - _entropy_ambient(xs)


def _gini_ambient(xs: Sequence[float]) -> float:
    # sum over all pairs |a - b| == 2 * sum_i (2i - n - 1) * x_(i), with x
    # ascending and i = 1..n: one sort, not n^2 terms, and exactly symmetric
    n = len(xs)
    total = math.fsum((2 * i - n - 1) * x for i, x in enumerate(sorted(xs), 1))
    return 2 * total / (n * n)


def _gini_exact(scale: int, nums: Sequence[int]) -> tuple[int, int]:
    # the sorted form of _gini_ambient, sorting ints on one scale
    n = len(nums)
    total = sum((2 * i - n - 1) * x for i, x in enumerate(sorted(nums), 1))
    return 2 * total, n * n * scale


def _simpson_ambient(xs: Sequence[float]) -> float:
    return math.fsum(x * x for x in xs)


def _hhi_ambient(xs: Sequence[float]) -> float:
    n = len(xs)
    if n < 2:
        raise DomainError("normalized concentration index needs n >= 2")
    return (_simpson_ambient(xs) - 1.0 / n) / (1.0 - 1.0 / n)


def _hhi_exact(scale: int, nums: Sequence[int]) -> tuple[int, int]:
    # (simpson - 1/n) / (1 - 1/n) with simpson = squares / square_scale
    n = len(nums)
    if n < 2:
        raise DomainError("normalized concentration index needs n >= 2")
    squares, square_scale = _sum_of_squares(scale, nums)
    return n * squares - square_scale, (n - 1) * square_scale


def _hoover_ambient(xs: Sequence[float]) -> float:
    share = 1.0 / len(xs)
    return math.fsum(abs(x - share) for x in xs) / 2


def _atkinson_ambient(eps: Fraction) -> AmbientFn:
    e = float(eps)

    def measure(xs: Sequence[float]) -> float:
        n = len(xs)
        mean = math.fsum(xs) / n
        if e > 1 and any(x == 0.0 for x in xs):
            return 1.0  # the equally-distributed equivalent collapses to zero
        p = 1.0 - e
        ede = (math.fsum(x**p for x in xs) / n) ** (1.0 / p)
        return 1.0 - ede / mean

    return measure


def _log_control_ambient(xs: Sequence[float]) -> float:
    if any(x == 0.0 for x in xs):
        return math.inf
    return math.sqrt(math.fsum(math.log(x) ** 2 for x in xs) / len(xs))


_ATKINSON_ID = re.compile(r"atkinson\((.+)\)\Z")

_STANDARD: tuple[MeasureSpec, ...] = (
    MeasureSpec("stddev", Direction.INDEX, True, _stddev_ambient),
    MeasureSpec("variance", Direction.INDEX, True, _variance_ambient),
    MeasureSpec(
        "coeff_variation", Direction.INDEX, True, _coeff_variation_ambient
    ),
    MeasureSpec("entropy", Direction.UTILITY, True, _entropy_ambient),
    MeasureSpec("entropy_index", Direction.INDEX, True, _entropy_index_ambient),
    MeasureSpec(
        "gini_mean_diff", Direction.INDEX, True, _gini_ambient, _gini_exact
    ),
    MeasureSpec("hhi", Direction.INDEX, True, _hhi_ambient, _hhi_exact),
    MeasureSpec(
        "simpson", Direction.INDEX, True, _simpson_ambient, _sum_of_squares
    ),
    # Hoover is only weakly monotone: transfers strictly between two
    # above-average (or two below-average) slots leave it unchanged.
    MeasureSpec("hoover", Direction.INDEX, False, _hoover_ambient, _hoover_exact),
    MeasureSpec(
        "atkinson(1/2)", Direction.INDEX, True, _atkinson_ambient(Fraction(1, 2))
    ),
    MeasureSpec("atkinson(2)", Direction.INDEX, True, _atkinson_ambient(Fraction(2))),
)

LOG_CONTROL = MeasureSpec(
    "log_control", Direction.UTILITY, True, _log_control_ambient
)


def registry() -> tuple[MeasureSpec, ...]:
    """All standard measures, in a stable order (excludes the control)."""
    return _STANDARD


def get_measure(measure_id: str) -> MeasureSpec:
    """Look up a measure by id.

    ``atkinson(e)`` accepts any rational parameter e > 0, e != 1, written
    as ``p/q`` or a decimal; the id is canonicalized, so ``atkinson(0.5)``
    and ``atkinson(1/2)`` name the same measure.
    """
    wanted = measure_id.strip()
    match = _ATKINSON_ID.fullmatch(wanted)
    if match is not None:
        try:
            eps = as_fraction(match.group(1))
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise UnknownMeasure(
                f"unparseable atkinson parameter: {match.group(1)!r}"
            ) from exc
        if eps <= 0 or eps == 1:
            raise UnknownMeasure(
                "atkinson parameter must be positive and different from 1"
            )
        wanted = f"atkinson({eps})"
    for spec in _STANDARD:
        if spec.id == wanted:
            return spec
    if wanted == LOG_CONTROL.id:
        return LOG_CONTROL
    if match is not None:
        return MeasureSpec(wanted, Direction.INDEX, True, _atkinson_ambient(eps))
    raise UnknownMeasure(f"no measure named {measure_id!r}")


def _value(m: MeasureSpec, scale: int, nums: Sequence[int]) -> float:
    """``evaluate`` on an integer view ``(scale, nums)``, in lowest terms or
    not: the float is the same either way, since int true division rounds
    the same rational the same way."""
    if m.exact is not None:
        num, den = m.exact(scale, nums)
        return num / den
    return m.ambient([x / scale for x in nums])


def evaluate(m: MeasureSpec, w: WeightVector) -> float:
    """Value of the measure at an allocation.

    Measures with a rational form are computed exactly on ints, as
    ``(num, den)``, and divided once at the end: int true division rounds
    correctly, so this is float(exact_value) and permutation-invariant to
    the last bit.  The others get each weight as num / scale from the
    integer view, which is likewise the float of the weight.
    """
    return _value(m, w._scale, w._nums)


def exact_value(m: MeasureSpec, w: WeightVector) -> Fraction:
    """Exact rational value; only some measures have one."""
    if m.exact is None:
        raise DomainError(f"{m.id} has no exact rational form")
    return Fraction(*m.exact(w._scale, w._nums))


def _index(m: MeasureSpec, scale: int, nums: Sequence[int]) -> float:
    """``index_value`` on an integer view ``(scale, nums)``."""
    raw = _value(m, scale, nums)
    return raw if m.direction is Direction.INDEX else -raw


def index_value(m: MeasureSpec, w: WeightVector) -> float:
    """The measure folded into index orientation: bigger = more concentrated."""
    return _index(m, w._scale, w._nums)


def ambient_utility(m: MeasureSpec) -> AmbientFn:
    """The measure as a float function in utility orientation.

    This is the shape the Schur-Ostrowski criterion speaks about: a
    spread-seeking allocator's objective, to be probed off the simplex.
    """
    if m.direction is Direction.UTILITY:
        return m.ambient
    ambient = m.ambient
    return lambda xs: -ambient(xs)


# --------------------------------------------------------------------------
# Axiom harness.
# --------------------------------------------------------------------------

Counterexample = tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class AxiomVerdict:
    """Outcome of one axiom: pass/fail plus the first few failing inputs."""

    passed: bool
    counterexamples: tuple[Counterexample, ...] = ()


_MAX_RECORDED = 3


def _verdict(bad: Sequence[Counterexample]) -> AxiomVerdict:
    """Passed when nothing failed; keeps the first few failing inputs."""
    return AxiomVerdict(not bad, tuple(bad[:_MAX_RECORDED]))


#: The axioms of an AxiomReport, in field and JSON order.
_AXIOMS = (
    "positivity",
    "zero_at_equality",
    "boundedness",
    "order_respecting",
    "strict_monotone",
)


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom verdicts for one measure at one sampling configuration.

    ``strict_monotone`` is None when the measure does not claim strictness,
    mirroring that the axiom is simply not asserted for it.
    """

    measure_id: str
    seed: int
    samples: int
    n: int
    positivity: AxiomVerdict
    zero_at_equality: AxiomVerdict
    boundedness: AxiomVerdict
    order_respecting: AxiomVerdict
    strict_monotone: AxiomVerdict | None

    def all_passed(self) -> bool:
        verdicts = (getattr(self, axiom) for axiom in _AXIOMS)
        return all(v.passed for v in verdicts if v is not None)

    def to_json_dict(self) -> dict:
        def verdict(v: AxiomVerdict | None):
            if v is None:
                return None
            return {
                "passed": v.passed,
                "counterexamples": [
                    [list(vec) for vec in case] for case in v.counterexamples
                ],
            }

        return {
            "measure": self.measure_id,
            "seed": self.seed,
            "samples": self.samples,
            "n": self.n,
            "axioms": {axiom: verdict(getattr(self, axiom)) for axiom in _AXIOMS},
        }


def _texts(*views: _Ints) -> Counterexample:
    """Integer views as a counterexample: each entry as ``str(Fraction)``
    writes it, in lowest terms whatever the view's scale."""
    return tuple(_rational_strings(nums, scale) for scale, nums in views)


def axiom_suite(
    m: MeasureSpec, seed: int, samples: int, n: int = 4
) -> AxiomReport:
    """Stress the five measure axioms on seeded random allocations.

    Positivity, zero-at-equality, and boundedness look at raw values;
    the two monotonicity axioms look at the index orientation, so a
    mis-declared direction shows up as an order violation.  Every failed
    axiom records concrete counterexamples that re-fail deterministically.

    Positivity and boundedness score ``random_weight_vector`` draws with
    ``evaluate``, the public path.  The nonuniform draws and both pair
    samplers stay on integer views ``(scale, nums)``: no weight vector is
    built for them, a rational measure is scored as (num, den) and one
    division, and a view becomes text (``_rational_strings``) only when it
    is recorded as a counterexample.  The random stream, the floats and
    so the report are those of the vector path.

    Strict measures need strict pairs, which ``random_strict_majorization_pair``
    cannot draw from n = 41 on; there this raises ValueError.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if n < 2:
        # every allocation of one slot is the uniform one, so no sample can
        # be bounded away from it
        raise ValueError("axioms need at least two slots")
    rng = random.Random(seed)

    points = [uniform_vector(n)]
    points += [random_weight_vector(rng, n) for _ in range(samples)]

    bad_positive: list[Counterexample] = []
    bad_finite: list[Counterexample] = []
    values = [evaluate(m, w) for w in points]
    for w, value in zip(points, values):
        if not math.isfinite(value):
            bad_finite.append((w.as_strings(),))
            continue
        if value < -EQUALITY_TOL:
            bad_positive.append((w.as_strings(),))

    bad_zero: list[Counterexample] = []
    if not (abs(values[0]) <= EQUALITY_TOL):
        bad_zero.append((points[0].as_strings(),))
    for _ in range(samples):
        w = _clearly_nonuniform(rng, n)
        if abs(_value(m, *w)) <= EQUALITY_TOL:
            bad_zero.append(_texts(w))
            if len(bad_zero) >= _MAX_RECORDED:
                break

    bad_order: list[Counterexample] = []
    for _ in range(samples):
        alpha, beta = _majorization_pair_ints(rng, n)
        if _index(m, *alpha) > _index(m, *beta) + EQUALITY_TOL:
            bad_order.append(_texts(alpha, beta))

    strict: AxiomVerdict | None = None
    if m.strict:
        bad_strict: list[Counterexample] = []
        for _ in range(samples):
            alpha, beta = _strict_pair_ints(rng, n)
            if not (_index(m, *beta) - _index(m, *alpha) > EQUALITY_TOL):
                bad_strict.append(_texts(alpha, beta))
        strict = _verdict(bad_strict)

    return AxiomReport(
        measure_id=m.id,
        seed=seed,
        samples=samples,
        n=n,
        positivity=_verdict(bad_positive),
        zero_at_equality=_verdict(bad_zero),
        boundedness=_verdict(bad_finite),
        order_respecting=_verdict(bad_order),
        strict_monotone=strict,
    )


# --------------------------------------------------------------------------
# Derivative-based Schur condition.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SchurCheckReport:
    """Breakdown of the symmetry + pairwise-sign test at one point; both
    flags are read off the two figures, so they cannot disagree with them."""

    max_symmetry_gap: float
    max_sign_product: float

    @property
    def symmetric(self) -> bool:
        return self.max_symmetry_gap <= SYMMETRY_TOL

    @property
    def sign_condition(self) -> bool:
        return self.max_sign_product <= SIGN_PRODUCT_TOL

    @property
    def passed(self) -> bool:
        return self.symmetric and self.sign_condition


def schur_ostrowski_report(
    f: AmbientFn,
    point: WeightVector,
    step: float = FD_STEP,
    seed: int = 0,
) -> SchurCheckReport:
    """Probe a function for the differential signature of spread-seeking.

    ``f`` must be symmetric and, for every coordinate pair, the larger
    coordinate must carry the (weakly) smaller partial derivative:
    (x_i - x_j) * (d_i f - d_j f) <= 0.  Partials are central finite
    differences in the ambient space, so the point must sit far enough
    inside the simplex for both probes of each coordinate to stay positive.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    scale = point._scale
    xs = [x / scale for x in point._nums]
    if min(xs) <= step:
        raise DomainError(
            "point too close to the boundary for this finite-difference step"
        )
    n = len(xs)

    rng = random.Random(seed)
    reference = f(xs)
    max_gap = 0.0
    for _ in range(10):
        shuffled = xs[:]
        rng.shuffle(shuffled)
        max_gap = max(max_gap, abs(f(shuffled) - reference))

    partials = []
    for i in range(n):
        up = xs[:]
        down = xs[:]
        up[i] += step
        down[i] -= step
        partials.append((f(up) - f(down)) / (2 * step))

    max_product = -math.inf
    for i in range(n):
        for j in range(i + 1, n):
            product = (xs[i] - xs[j]) * (partials[i] - partials[j])
            max_product = max(max_product, product)

    return SchurCheckReport(max_gap, max_product)


def schur_ostrowski_check(
    f: AmbientFn,
    point: WeightVector,
    step: float = FD_STEP,
    seed: int = 0,
) -> bool:
    """True iff the symmetry and pairwise sign conditions both hold at the point."""
    return schur_ostrowski_report(f, point, step, seed).passed


__all__ = [
    "FD_STEP",
    "SIGN_PRODUCT_TOL",
    "SYMMETRY_TOL",
    "EQUALITY_TOL",
    "Direction",
    "MeasureSpec",
    "LOG_CONTROL",
    "registry",
    "get_measure",
    "evaluate",
    "exact_value",
    "index_value",
    "ambient_utility",
    "AxiomVerdict",
    "AxiomReport",
    "axiom_suite",
    "SchurCheckReport",
    "schur_ostrowski_report",
    "schur_ostrowski_check",
]
