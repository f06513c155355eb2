"""Higher-order split-operator plans with rigorous step counts and bounds.

A plan is the flattened exponential sequence of the order-2k recursive
integrator for a sum of m terms: the order-2 base is the symmetric sweep
e^{H_1 l/2} ... e^{H_m l/2} e^{H_m l/2} ... e^{H_1 l/2}, and each order
step composes five scaled copies of the previous one with coefficients
p_k, p_k, 1-4p_k, p_k, p_k where p_k = (4 - 4^(1/(2k-1)))^(-1).  Adjacent
exponentials of the same term are always merged, which pins the plan
length at exactly 2(m-1)5^(k-1) + 1.

The bound side gives: a closed-form error bound for the r-fold slicing,
its validity restrictions, the slice count r needed for a target error
(from the closed form, or the smallest one its sharper pre-form allows),
a note when that closed form is used outside its validity window, and
exponential-count bounds with their validity windows.  For k = 1 it
also gives the commutator-scaling bound, which depends on the terms
themselves rather than on their largest norm, and its slice count.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .config import TOL, PlanError
from .numerics import hermitian_expm, require_hermitian, require_state

TermEvolver = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PlanStep:
    term: int        # 1-based summand index
    fraction: float  # of the slice time


@dataclass(frozen=True)
class ProductFormulaPlan:
    k: int
    m: int
    steps: tuple[PlanStep, ...]

    def __post_init__(self) -> None:
        expected = exponential_count(self.k, self.m)
        if len(self.steps) != expected:
            raise PlanError(
                f"plan has {len(self.steps)} steps, expected {expected}")
        fractions = [[] for _ in range(self.m + 1)]
        prev = 0
        for st in self.steps:
            if not 1 <= st.term <= self.m:
                raise PlanError(f"step term {st.term} out of range 1..{self.m}")
            if st.term == prev:
                raise PlanError(f"unmerged adjacent steps for term {st.term}")
            if not (math.isfinite(st.fraction) and st.fraction != 0.0):
                raise PlanError(f"bad step fraction {st.fraction}")
            if abs(st.fraction) > 1.0 + 1e-12:
                raise PlanError(f"step fraction {st.fraction} out of range")
            fractions[st.term].append(st.fraction)
            prev = st.term
        for j in range(1, self.m + 1):
            # fsum is exact before its one rounding; a running sum of the
            # 5^(k-1) fractions drifts past the tolerance at k = 9
            total = math.fsum(fractions[j])
            if abs(total - 1.0) > TOL.plan_fraction_sum:
                raise PlanError(
                    f"term {j} fractions sum to {total!r}, expected 1")


def is_integer(x, kind: type = int) -> bool:
    """isinstance(x, kind), with bool refused: Python counts True and
    False as ints, but neither is a count."""
    return isinstance(x, kind) and not isinstance(x, bool)


def exponential_count(k: int, m: int) -> int:
    """Exact merged plan length, 2(m-1)5^(k-1) + 1."""
    _check_km(k, m)
    return 2 * (m - 1) * 5 ** (k - 1) + 1


# the arithmetic of p_k and of the plan fractions built from it, each
# rounded to a float only once it is complete: 60 significant digits, and
# none of the caller's decimal context (a trapped Inexact would raise)
_PLAN_CONTEXT = Context(prec=60, rounding=ROUND_HALF_EVEN)


@lru_cache(maxsize=None, typed=True)
def p_coefficient(k: int) -> Decimal:
    """Recursion coefficient p_k = (4 - 4^(1/(2k-1)))^(-1) of the order
    step 2k-2 -> 2k, k >= 2, as a Decimal of 60 significant digits.

    build_plan scales the order-(2k-2) plan by this value; it is computed
    once per k.
    """
    if not (is_integer(k) and k >= 2):
        raise PlanError(f"p_coefficient needs integer k >= 2, got {k}")
    with localcontext(_PLAN_CONTEXT):
        return 1 / (4 - Decimal(4) ** (Decimal(1) / (2 * k - 1)))


def check_order(k: int) -> None:
    if not (is_integer(k) and k >= 1):
        raise PlanError(f"order parameter k must be a positive integer, got {k}")


def _check_km(k: int, m: int) -> None:
    check_order(k)
    if not (is_integer(m) and m >= 1):
        raise PlanError(f"term count m must be a positive integer, got {m}")


def check_slices(r: int) -> None:
    if not (is_integer(r, numbers.Integral) and r >= 1):
        raise PlanError(f"slice count r must be a positive integer, got {r}")
    if r > sys.float_info.max:
        raise PlanError("slice count r overflows floating point range")


# largest e with 5.0 ** e inside float range (5^441 ~ 1.8e308); the bounds
# and windows below scale with 5^(k-1)
_MAX_POW5 = int(math.log(sys.float_info.max, 5))


def _check_order_range(k: int) -> None:
    if k - 1 > _MAX_POW5:
        raise PlanError(f"order k={k} overflows: 5^(k-1) exceeds floating "
                        f"point range")


def _ratio_power(c: float, x: float, k: int, r: int) -> float:
    """c x^(2k+1) / r^(2k), the closed form's shape, inf past float range.

    Evaluated as written while both powers fit in a float; past that (a
    huge r or x) as c x (x/r)^(2k), which is small whenever r is large.
    """
    try:
        return c * x ** (2 * k + 1) / float(r) ** (2 * k)
    except OverflowError:
        pass
    try:
        return c * x * (x / float(r)) ** (2 * k)
    except OverflowError:
        return math.inf


def _positive(bound: float) -> float:
    """A positive bound, rounded up to the smallest float where it would
    underflow to 0, so that it still bounds."""
    return max(bound, math.ulp(0.0))


def _append_merged(out: list[list], term: int, frac) -> None:
    if out and out[-1][0] == term:
        out[-1][1] += frac
    else:
        out.append([term, frac])


def _emit(k: int, m: int, scale: Decimal, out: list[list]) -> None:
    if k == 1:
        half = scale / 2
        for j in range(1, m + 1):
            _append_merged(out, j, half)
        for j in range(m, 0, -1):
            _append_merged(out, j, half)
        return
    p = p_coefficient(k)
    for c in (p, p, 1 - 4 * p, p, p):
        _emit(k - 1, m, c * scale, out)


# Longest plan build_plan builds.  Steps are built one at a time, at about
# 3 microseconds and 320 B of peak memory each (the order-18 plan for
# three terms, k = 9 and 1,562,501 steps, took 4.7 s and a peak RSS of
# 501 MiB on a 2-vCPU x86-64 VM), so a plan this long takes some 13 s and
# 1.3 GB, and one much longer could not be built, let alone run, in
# reasonable time.
_MAX_PLAN_STEPS = 2 ** 22


@lru_cache(maxsize=None, typed=True)
def build_plan(k: int, m: int) -> ProductFormulaPlan:
    """Merged exponential sequence of the order-2k integrator for m terms.

    Each order step scales five copies of the order-(2k-2) plan by p_k,
    p_k, 1 - 4 p_k, p_k, p_k, with p_k from p_coefficient.  Fractions are
    accumulated as Decimals of 60 significant digits, whatever the
    caller's decimal context, and rounded to a float once, so per-term
    sums hit 1 to full double accuracy at any supported order.  A plan
    longer than _MAX_PLAN_STEPS is refused before it is built.  A one-term
    plan merges into the single step (1, 1.0) at every order, and is
    returned without walking the 5^(k-1) leaves of the recursion.
    """
    length = exponential_count(k, m)
    if m == 1:
        return ProductFormulaPlan(k, 1, (PlanStep(1, 1.0),))
    if length > _MAX_PLAN_STEPS:
        raise PlanError(
            f"the order-{2 * k} plan for {m} terms has {length} steps, "
            f"more than {_MAX_PLAN_STEPS} can be built")
    out: list[list] = []
    with localcontext(_PLAN_CONTEXT):
        _emit(k, m, Decimal(1), out)
    steps = tuple(PlanStep(t, float(f)) for t, f in out)
    return ProductFormulaPlan(k, m, steps)


def _check_tau_eps(tau: float, eps: float) -> None:
    if not (math.isfinite(tau) and tau >= 0):
        raise PlanError(f"tau must be a finite nonnegative number, got {tau}")
    if not (math.isfinite(eps) and eps > 0):
        raise PlanError(f"eps must be a finite positive number, got {eps}")


def _check_count_args(k: int, m: int, tau: float, eps: float) -> None:
    _check_km(k, m)
    _check_tau_eps(tau, eps)
    _check_order_range(k)


def choose_k(m: int, tau: float, eps: float) -> int:
    """Near-optimal integrator order: round(sqrt(log5(m tau/eps) + 1)/2).

    Clamped to at least 1; ties round up.
    """
    _check_km(1, m)
    _check_tau_eps(tau, eps)
    if tau == 0:
        return 1
    v = math.log(m * tau / eps, 5) + 1.0
    if v == math.inf:
        raise PlanError(f"order choice overflows at m={m}, tau={tau}, "
                        f"eps={eps}")
    if v <= 0:
        return 1
    return max(1, int(math.floor(0.5 * math.sqrt(v) + 0.5)))


def choose_r(k: int, m: int, tau: float, eps: float) -> int:
    """Slice count ceil(4 * 5^(k-1/2) (m tau)^(1+1/2k) / eps^(1/2k)).

    Guarantees the closed-form error bound is at most eps inside the window
    eps <= 1 <= 2 m 5^(k-1) tau; outside it the formula value is still
    returned, and window_notes says so.
    """
    _check_count_args(k, m, tau, eps)
    if tau == 0:
        return 1
    try:
        val = (4.0 * 5.0 ** (k - 0.5) * (m * tau) ** (1.0 + 0.5 / k)
               / eps ** (0.5 / k))
        return max(1, math.ceil(val))
    except OverflowError:
        raise PlanError(f"slice count overflows at k={k}, m={m}, tau={tau}, "
                        f"eps={eps}") from None


def window_notes(k: int, m: int, tau: float, eps: float) -> list[str]:
    """choose_r's note when eps <= 1 <= 2 m 5^(k-1) tau fails, else [].

    At tau = 0 choose_r returns 1 without the formula, so there is no note.
    """
    _check_count_args(k, m, tau, eps)
    x = 2.0 * m * 5 ** (k - 1) * tau
    if tau == 0 or eps <= 1.0 <= x:
        return []
    return [f"slice-count formula used outside its window "
            f"(eps={eps}, 2m5^(k-1)tau={x})"]


def restriction_values(k: int, m: int, tau: float, r: int) -> tuple[float, float]:
    """The two validity ratios of the closed-form bound; both must be <= 1."""
    _check_km(k, m)
    _check_tau_eps(tau, 1.0)
    check_slices(r)
    _check_order_range(k)
    x = 2.0 * 5.0 ** (k - 1) * m * tau
    return 2.0 * x / r, _ratio_power(16.0 / 3.0, x, k, r)


def restriction_check(k: int, m: int, tau: float, r: int) -> bool:
    a, b = restriction_values(k, m, tau, r)
    return a <= 1.0 and b <= 1.0


def integrator_error_bound(k: int, m: int, tau: float, r: int) -> float | None:
    """Closed-form bound 5 (2 * 5^(k-1) m tau)^(2k+1) / r^(2k).

    The bound holds only where both restrictions of restriction_values
    do; elsewhere it is None.  Invalid arguments raise PlanError.
    """
    if not restriction_check(k, m, tau, r):
        return None
    if tau == 0:
        return 0.0
    x = 2.0 * 5.0 ** (k - 1) * m * tau
    return _positive(_ratio_power(5.0, x, k, r))


def integrator_error_bound_sharp(k: int, m: int, tau: float,
                                 r: int) -> float | None:
    """Sharper pre-form (1 + (8/3)(2 m 5^(k-1) tau / r)^(2k+1))^r - 1.

    The pre-form holds wherever the linear restriction alone does;
    elsewhere it is None.  Invalid arguments raise PlanError.  Evaluated
    through expm1/log1p so tiny per-slice terms survive the r-fold
    compounding; inf past float range.
    """
    if restriction_values(k, m, tau, r)[0] > 1.0:
        return None
    if tau == 0:
        return 0.0
    x = 2.0 * m * 5.0 ** (k - 1) * tau
    u = (8.0 / 3.0) * (x / r) ** (2 * k + 1)
    # u lost its digits to underflow; r log1p(u) is r u there, kept as
    # (8/3) x^(2k+1) / r^(2k), so a huge r cannot read as a zero bound
    exponent = (_ratio_power(8.0 / 3.0, x, k, r) if u < sys.float_info.min
                else r * math.log1p(u))
    try:
        return _positive(math.expm1(exponent))
    except OverflowError:
        return math.inf


def choose_r_sharp(k: int, m: int, tau: float, eps: float) -> int:
    """Smallest r with integrator_error_bound_sharp(k, m, tau, r) <= eps.

    The sharp pre-form is where Berry, Ahokas, Cleve & Sanders, "Efficient
    quantum algorithms for simulating sparse Hamiltonians", Commun. Math.
    Phys. 270, 359 (2007), quant-ph/0508139, stand in the proof of their
    Lemma 1 before they simplify: under the linear restriction
    4 m 5^(k-1) tau / r <= 1 each of the r slices errs by at most
    u = (8/3)(2 m 5^(k-1) tau / r)^(2k+1), and r slices compound to
    (1 + u)^r - 1.  It needs neither the power restriction nor choose_r's
    window, and never exceeds the closed form where both apply, so inside
    that window this r is at most choose_r's.

    The bound falls as r grows.  Since r log1p(u) <= r u, the r at which
    r u = log1p(eps) bounds the answer from above; the search bisects
    between it and the smallest r the linear restriction allows.
    """
    _check_count_args(k, m, tau, eps)
    if tau == 0:
        return 1
    x = 2.0 * 5.0 ** (k - 1) * m * tau  # rounded as restriction_values does
    try:
        lo = max(1, math.ceil(2.0 * x))
        hi = max(lo, math.ceil(x * (((8.0 / 3.0) * x) ** (0.5 / k)
                                    / math.log1p(eps) ** (0.5 / k))))
    except OverflowError:
        raise PlanError(f"slice count overflows at k={k}, m={m}, tau={tau}, "
                        f"eps={eps}") from None
    while integrator_error_bound_sharp(k, m, tau, hi) > eps:  # rounding
        hi += 1 + (hi >> 50)  # a step float(hi) still sees past 2^53
    lo -= 1  # fails the linear restriction
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if integrator_error_bound_sharp(k, m, tau, mid) <= eps:
            hi = mid
        else:
            lo = mid
    return hi


def commutator_alpha(norms) -> float:
    """Prefactor alpha of the second-order commutator-scaling bound.

    Childs, Su, Tran, Wiebe & Zhu, "Theory of Trotter error with
    commutator scaling", PRX 11, 011020 (2021), arXiv:1912.08854, bound
    the symmetric (k = 1) formula for H = H_1 + ... + H_m by

        ||S_2(t) - e^{-iHt}|| <= (t^3/12) sum_g ||[S_g, [S_g, H_g]]||
                                 + (t^3/24) sum_g ||[H_g, [H_g, S_g]]||

    with S_g = H_{g+1} + ... + H_m and H_1 the outermost exponential of
    S_2, as in build_plan(1, m): term 1 is swept first and last, term m
    once in the middle.  `norms` holds one row (||[S_g, [S_g, H_g]]||,
    ||[H_g, [H_g, S_g]]||) per term, in plan order, or upper bounds on
    them; alpha is the bracket, so that the bound is |t|^3 alpha.

    The bound holds for any labelling of the terms, so the order is the
    caller's choice, and the norms must be in the order of the plan that
    runs.  A large term placed late sits in the suffix sum of every term
    before it; `simulate` puts the largest pieces outermost.
    """
    try:
        norms = np.asarray(norms, dtype=np.float64)
    except (TypeError, ValueError):
        raise PlanError(
            "commutator norms must be numbers shaped (m, 2)") from None
    if norms.ndim != 2 or norms.shape[1] != 2:
        raise PlanError(
            f"commutator norms must be shaped (m, 2), got {norms.shape}")
    if not np.all(np.isfinite(norms) & (norms >= 0)):
        raise PlanError("commutator norms must be finite and nonnegative")
    return float(norms[:, 0].sum() / 12.0 + norms[:, 1].sum() / 24.0)


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha >= 0):
        raise PlanError(f"alpha must be finite and nonnegative, got {alpha}")


def commutator_error_bound(alpha: float, t: float, r: int) -> float:
    """Bound |t|^3 alpha / r^2 on r slices of the k = 1 plan.

    Each slice errs by at most |t/r|^3 alpha (commutator_alpha), and the
    errors of r unitary slices add.
    """
    check_slices(r)
    _check_alpha(alpha)
    _check_tau_eps(abs(t), 1.0)
    if alpha == 0 or t == 0:
        return 0.0
    step = abs(t) / r
    # inf, not OverflowError, past range
    return _positive(step * step * abs(t) * alpha)


def choose_r_commutator(alpha: float, t: float, eps: float) -> int:
    """Smallest r with commutator_error_bound(alpha, t, r) <= eps,
    ceil(sqrt(|t|^3 alpha / eps)), at least 1 (past 2^50, close to it)."""
    _check_tau_eps(abs(t), eps)
    _check_alpha(alpha)
    if alpha == 0 or t == 0:
        return 1
    try:
        r = max(1, math.ceil(abs(t) * math.sqrt(abs(t) * alpha / eps)))
    except OverflowError:
        raise PlanError(f"slice count overflows at t={t}, alpha={alpha}, "
                        f"eps={eps}") from None
    while commutator_error_bound(alpha, t, r) > eps:  # rounding in the sqrt
        r += 1 + (r >> 50)  # a step float(r) still sees past 2^53
    return r


@dataclass(frozen=True)
class BoundResult:
    value: float
    within_window: bool


def nexp_bound(k: int, m: int, tau: float, eps: float) -> BoundResult:
    """Exponential-count bound 2 m 5^(2k) (m tau)^(1+1/2k) / eps^(1/2k).

    The window flag records eps <= 1 <= 2 m 5^(k-1) tau, where window_notes
    has no note for choose_r; outside it the value is still the formula's,
    flagged rather than raised.
    """
    _check_count_args(k, m, tau, eps)
    if tau == 0:  # 2 m 5^(k-1) tau = 0 < 1, outside the window
        return BoundResult(0.0, False)
    window = not window_notes(k, m, tau, eps)
    try:
        value = (2.0 * m * 5.0 ** (2 * k) * (m * tau) ** (1.0 + 0.5 / k)
                 / eps ** (0.5 / k))
    except OverflowError:  # past float range, as nexp_bound_optimal gives
        value = math.inf
    return BoundResult(value, window)


def nexp_bound_optimal(m: int, tau: float, eps: float) -> tuple[int, BoundResult]:
    """Order choice and the order-free bound 4 m^2 tau e^(2 sqrt(ln5 ln(m tau/eps))).

    Returns (k, result), whose window flag is eps <= 1 <= m tau / 25.
    """
    _check_km(1, m)
    _check_tau_eps(tau, eps)
    k = choose_k(m, tau, eps)
    window = eps <= 1.0 <= m * tau / 25.0
    if tau == 0:
        return k, BoundResult(0.0, window)
    ln_ratio = max(math.log(m * tau / eps), 0.0)
    value = 4.0 * m * m * tau * math.exp(2.0 * math.sqrt(math.log(5.0) * ln_ratio))
    return k, BoundResult(value, window)


def hermitian_evolver(H: np.ndarray) -> TermEvolver:
    """Exact evolver psi -> e^{-iHs} psi via a one-time eigendecomposition."""
    H = require_hermitian(H, name="term")
    w, V = np.linalg.eigh(H)
    Vh = V.conj().T

    def evolve(s: float, psi: np.ndarray) -> np.ndarray:
        return V @ (np.exp(-1j * w * s) * (Vh @ psi))

    return evolve


def simulate(terms: Sequence[TermEvolver], t: float, k: int, r: int,
             psi: np.ndarray) -> np.ndarray:
    """Apply the r-fold order-2k plan for the given term evolvers to psi.

    Each evolver maps (s, psi) to e^{-i H_j s} psi.  Exactly
    r * (2(m-1)5^(k-1)+1) evolver calls are made; the output norm is
    validated, not silently renormalized.
    """
    m = len(terms)
    _check_km(k, m)
    check_slices(r)
    psi = require_state(psi)
    if t == 0:
        return psi.copy()
    plan = build_plan(k, m)
    slice_t = t / r
    for _ in range(r):
        for st in plan.steps:
            psi = terms[st.term - 1](st.fraction * slice_t, psi)
    return require_state(psi)


def plan_unitary(hams: Sequence[np.ndarray], t: float, k: int, r: int) -> np.ndarray:
    """Dense unitary of the full r-fold plan, one slice raised to the r-th power.

    Equivalent to simulate() with exact term evolvers, up to floating-point
    reassociation; used for fast error sweeps.
    """
    m = len(hams)
    _check_km(k, m)
    check_slices(r)
    dim = np.asarray(hams[0]).shape[0]
    if t == 0:
        return np.eye(dim, dtype=complex)
    plan = build_plan(k, m)
    slice_t = t / r
    cache: dict[tuple[int, float], np.ndarray] = {}
    U = np.eye(dim, dtype=complex)
    for st in plan.steps:
        key = (st.term, st.fraction)
        if key not in cache:
            cache[key] = hermitian_expm(hams[st.term - 1], st.fraction * slice_t)
        U = cache[key] @ U
    return np.linalg.matrix_power(U, r)
