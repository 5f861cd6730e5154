"""Independent answer checks for every benchmark operation.

None of these call naivediv: each answer is checked against how the input
was built or against a small exact computation kept here, so the function
under test is never its own oracle.  Checks return an error message, or
None when the answer is right.
"""

from __future__ import annotations

import math
from fractions import Fraction

RELATION_PREFERENCE = {
    "EqualUpToPermutation": "Indifferent",
    "FirstMoreEqual": "FirstPreferred",
    "SecondMoreEqual": "SecondPreferred",
    "Incomparable": "DependsOnAlternatives",
}

FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-12


def close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL)


# --------------------------------------------------------------------------
# Majorization on integers.
# --------------------------------------------------------------------------


def as_integers(*vectors: list[Fraction]) -> list[list[int]]:
    """Scale rational vectors onto one common integer lattice."""
    scale = math.lcm(*(x.denominator for v in vectors for x in v))
    return [[x.numerator * (scale // x.denominator) for x in v] for v in vectors]


def int_majorizes(big: list[int], small: list[int]) -> bool:
    """Partial sums of the descending rearrangement of ``big`` dominate."""
    if sum(big) != sum(small):
        return False
    run_big = run_small = 0
    for x, y in zip(sorted(big, reverse=True), sorted(small, reverse=True)):
        run_big += x
        run_small += y
        if run_big < run_small:
            return False
    return True


def majorizes(beta: list[Fraction], alpha: list[Fraction]) -> bool:
    b, a = as_integers(beta, alpha)
    return int_majorizes(b, a)


def relation(first: list[Fraction], second: list[Fraction]) -> str:
    """The relation ``compare(first, second)`` must report."""
    a, b = as_integers(first, second)
    if sorted(a) == sorted(b):
        return "EqualUpToPermutation"
    b_over_a = int_majorizes(b, a)
    a_over_b = int_majorizes(a, b)
    if b_over_a and not a_over_b:
        return "FirstMoreEqual"
    if a_over_b and not b_over_a:
        return "SecondMoreEqual"
    return "Incomparable"


# --------------------------------------------------------------------------
# Lorenz curves and measures.
# --------------------------------------------------------------------------


def lorenz_points(w: list[Fraction], points: int) -> list[tuple[Fraction, Fraction]]:
    """(t, L(t)) on the breakpoints k/n and the grid i/points, ascending."""
    n = len(w)
    prefix = [Fraction(0)]
    ascending = sorted(w)
    for x in ascending:
        prefix.append(prefix[-1] + x)
    grid = {Fraction(k, n) for k in range(n + 1)}
    if points > 0:
        grid |= {Fraction(i, points) for i in range(points + 1)}
    out = []
    for t in sorted(grid):
        k = math.floor(t * n)
        value = prefix[k] if k == n else prefix[k] + (t * n - k) * ascending[k]
        out.append((t, value))
    return out


def gini_exact(w: list[Fraction]) -> Fraction:
    """Mean absolute difference over all ordered pairs, by the sorted formula."""
    n = len(w)
    ascending = sorted(w)
    total = sum((2 * k - n - 1) * x for k, x in enumerate(ascending, start=1))
    return 2 * total / (n * n)


def measure_values(w: list[Fraction]) -> dict[str, float]:
    """Every registered measure plus the control, computed from scratch."""
    n = len(w)
    xs = [float(x) for x in w]
    share = Fraction(1, n)
    simpson = sum(x * x for x in w)
    variance = math.fsum((x - 1.0 / n) ** 2 for x in xs) / n
    mean = math.fsum(xs) / n
    entropy = -math.fsum(x * math.log(x) for x in xs if x > 0)

    def atkinson(eps: float) -> float:
        if eps > 1 and min(xs) == 0.0:
            return 1.0
        p = 1.0 - eps
        ede = (math.fsum(x**p for x in xs) / n) ** (1.0 / p)
        return 1.0 - ede / mean

    values = {
        "stddev": math.sqrt(variance),
        "variance": variance,
        "coeff_variation": math.sqrt(variance) / mean,
        "entropy": entropy,
        "entropy_index": math.log(n) - entropy,
        "gini_mean_diff": float(gini_exact(w)),
        "hhi": float((simpson - share) / (1 - share)),
        "simpson": float(simpson),
        "hoover": float(sum(abs(x - share) for x in w) / 2),
        "atkinson(1/2)": atkinson(0.5),
        "atkinson(2)": atkinson(2.0),
    }
    if min(xs) > 0:
        values["log_control"] = math.sqrt(math.fsum(math.log(x) ** 2 for x in xs) / n)
    return values


def aversion_squared(w: list[Fraction]) -> Fraction:
    share = Fraction(1, len(w))
    return sum((x - share) ** 2 for x in w)


# --------------------------------------------------------------------------
# Preference relative to a benchmark allocation (d-majorization).
# --------------------------------------------------------------------------


def _relative_curve(v: list[Fraction], d: list[Fraction]):
    """Breakpoints of the concave curve of cumulative (d, v).

    Slots with d = 0 come first and give a vertical start at x = 0; the
    others follow in decreasing order of v/d.
    """
    start = sum(x for x, y in zip(v, d) if y == 0)
    rest = sorted(
        ((x, y) for x, y in zip(v, d) if y > 0), key=lambda p: p[0] / p[1], reverse=True
    )
    points = [(Fraction(0), start)]
    for x, y in rest:
        last_x, last_y = points[-1]
        points.append((last_x + y, last_y + x))
    return points


def _curve_at(points, t: Fraction) -> Fraction:
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if t <= x1:
            return y0 + (y1 - y0) * (t - x0) / (x1 - x0)
    return points[-1][1]


def d_majorizes(beta: list[Fraction], alpha: list[Fraction], d: list[Fraction]) -> bool:
    """True iff alpha = beta @ A for some A >= 0 with unit row sums and d @ A = d.

    This is the relative-Lorenz (thermo-majorization) test: the curve of
    beta must lie on or above the curve of alpha at each of alpha's
    breakpoints.
    """
    upper = _relative_curve(beta, d)
    return all(y <= _curve_at(upper, x) for x, y in _relative_curve(alpha, d))


def relative_preference(alpha, beta, d) -> str:
    forward = d_majorizes(beta, alpha, d)
    backward = d_majorizes(alpha, beta, d)
    if forward and backward:
        return "Indifferent"
    if forward:
        return "FirstPreferred"
    if backward:
        return "SecondPreferred"
    return "DependsOnAlternatives"


# --------------------------------------------------------------------------
# Multivariate witnesses.
# --------------------------------------------------------------------------


def check_witness(entries, targets, sources) -> str | None:
    """The witness must be doubly stochastic and carry every source row exactly."""
    m = [[Fraction(e) for e in row] for row in entries]
    n = len(m)
    if any(len(row) != n for row in m) or n != len(sources[0]):
        return "witness has the wrong shape"
    if any(e < 0 for row in m for e in row):
        return "witness has a negative entry"
    if any(sum(row) != 1 for row in m) or any(
        sum(m[i][j] for i in range(n)) != 1 for j in range(n)
    ):
        return "witness is not doubly stochastic"
    for y, x in zip(sources, targets):
        if [sum(y[i] * m[i][j] for i in range(n)) for j in range(n)] != list(x):
            return "witness does not carry a source row onto its target"
    return None


# --------------------------------------------------------------------------
# Rebalancing plans.
# --------------------------------------------------------------------------


def max_assignment(matrix: list[list[float]]) -> float:
    """Largest sum of one entry per row and column (Hungarian method)."""
    n = len(matrix)
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    owner = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0, delta, j1 = owner[j0], inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = -matrix[i0 - 1][j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if owner[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    return math.fsum(matrix[owner[j] - 1][j - 1] for j in range(1, n + 1))


def check_plan(plan: dict, source: list[Fraction], target: list[Fraction], cost_rate: float) -> str | None:
    """Replay a serialized plan step by step and audit every derived field."""
    n = len(source)
    if [Fraction(x) for x in plan["source"]["weights"]] != source:
        return "plan source differs from the input"
    if [Fraction(x) for x in plan["target"]["weights"]] != target:
        return "plan target differs from the requested target"
    if len(plan["intermediates"]) != len(plan["steps"]):
        return "plan needs one intermediate per step"
    current = list(source)
    composed = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    averaging = 0
    for step, shown in zip(plan["steps"], plan["intermediates"]):
        j, k, lam = step["j"] - 1, step["k"] - 1, Fraction(step["lambda"])
        if not (0 <= j < n and 0 <= k < n and j != k and 0 <= lam <= 1):
            return "plan has an invalid step"
        averaging += lam != 0
        a, b = current[j], current[k]
        current[j], current[k] = lam * a + (1 - lam) * b, lam * b + (1 - lam) * a
        for row in composed:
            a, b = row[j], row[k]
            row[j], row[k] = lam * a + (1 - lam) * b, lam * b + (1 - lam) * a
        if [Fraction(x) for x in shown] != current:
            return "plan intermediate does not match its step"
    if current != target:
        return "plan steps do not reach the target"
    if averaging > n - 1:
        return f"plan uses {averaging} averaging steps, more than n - 1"
    turnover = sum(abs(t - s) for s, t in zip(source, target)) / 2
    if Fraction(plan["turnover"]) != turnover:
        return "plan turnover is not half the l1 distance"
    deltas = [(t["label"], Fraction(t["delta"])) for t in plan["trades"]]
    if deltas != [(f"w{i}", t - s) for i, (s, t) in enumerate(zip(source, target), 1)]:
        return "plan trades are not target minus source"
    if not close(plan["cost"], cost_rate * 2 * float(turnover)):
        return "plan cost is not rate times traded mass"
    if not close(plan["cost_rate"], cost_rate):
        return "plan cost rate differs from the request"
    uniform = all(x == Fraction(1, n) for x in target)
    practical = plan["practical_turnover"]
    if not uniform:
        return None if practical is None else "practical turnover on a non-uniform target"
    norm_sq = float(sum(e * e for row in composed for e in row))
    best = max_assignment([[float(e) for e in row] for row in composed])
    distance = max(norm_sq + n - 2 * best, 0.0)
    if practical is None or not close(practical, float(turnover) * math.sqrt(distance)):
        return "practical turnover does not match the composed matrix"
    return None


# --------------------------------------------------------------------------
# Axiom harness and Schur-Ostrowski check.
# --------------------------------------------------------------------------

#: The registered measure ids, in registry order.
REGISTRY_IDS = (
    "stddev", "variance", "coeff_variation", "entropy", "entropy_index", "gini_mean_diff",
    "hhi", "simpson", "hoover", "atkinson(1/2)", "atkinson(2)",
)
#: Measures that are only weakly Schur-monotone, so no strictness is claimed.
WEAK = {"hoover"}
#: The deliberately mis-oriented control: a utility by declaration that in
#: fact rises with concentration.
CONTROL = "log_control"


def expected_axioms(measure_id: str, n: int) -> dict[str, bool | None]:
    """Axiom verdicts the harness must reach, from the measures' mathematics."""
    at_uniform = measure_values([Fraction(1, n)] * n)[measure_id]
    control = measure_id == CONTROL
    return {
        "positivity": True,
        "zero_at_equality": abs(at_uniform) <= FLOAT_ABS_TOL,
        "boundedness": True,
        "order_respecting": not control,
        "strict_monotone": None if measure_id in WEAK else not control,
    }


def check_axiom_report(report: dict, measure_id: str, n: int, samples: int, seed: int) -> str | None:
    if (report["measure"], report["n"], report["samples"], report["seed"]) != (
        measure_id, n, samples, seed,
    ):
        return "axiom report echoes the wrong configuration"
    got = {k: (v["passed"] if v is not None else None) for k, v in report["axioms"].items()}
    want = expected_axioms(measure_id, n)
    if got != want:
        return f"axiom verdicts {got} differ from {want}"
    if measure_id == CONTROL:
        cases = report["axioms"]["order_respecting"]["counterexamples"]
        if not cases:
            return "failed order axiom recorded no counterexample"
        for alpha_s, beta_s in cases:
            alpha = [Fraction(x) for x in alpha_s]
            beta = [Fraction(x) for x in beta_s]
            if not majorizes(beta, alpha):
                return "order counterexample is not a majorized pair"
            # log_control is declared a utility, so its index value is -value.
            if not (
                -measure_values(alpha)[CONTROL]
                > -measure_values(beta)[CONTROL] + FLOAT_ABS_TOL
            ):
                return "order counterexample does not violate the order"
    return None


def expected_schur(measure_id: str) -> bool:
    """Every registered measure is Schur-monotone in its declared direction
    at an interior point with separated coordinates; the control is not."""
    return measure_id != CONTROL
