"""Product-formula plans, step-count/error bounds, and simulation."""

import decimal
import hashlib
import math
import time
from decimal import Decimal

import numpy as np
import pytest

from hamsim import numerics, suzuki
from hamsim.config import TOL, PlanError
from hamsim.suzuki import BoundResult, PlanStep

# Frozen reference constants, computed independently with mpmath at 40
# digits from the defining formulas.
P2 = Decimal("0.4144907717943757371423541")
P3 = Decimal("0.373065827733272824775863")
P4 = Decimal("0.3595846493499922526124173")
LEMMA_1_2_1_253 = 320.0 / 64009.0            # 0.0049992969738630505
SHARP_1_2_1_253 = 0.0026698353493890298113
NEXP_1_2_1_001 = 2828.4271247461900976       # = 2000 sqrt(2)
NEXP_FREE_2_100_1E3 = 11322201.138201960873

NOISE = 1e-12  # roundoff allowance for measured operator-norm errors


def test_p_coefficient_frozen_values():
    # to the digits the constants carry, far past a float's
    for k, want in ((2, P2), (3, P3), (4, P4)):
        assert abs(suzuki.p_coefficient(k) - want) < Decimal("1e-24")
    for bad in (1, 2.0, True):  # 2.0 after 2 is cached, too
        with pytest.raises(PlanError):
            suzuki.p_coefficient(bad)


# sha256 of float.hex of every fraction of build_plan(k, m), for k 1..5
# and, within each k, m 1..6
PLAN_FRACTIONS_SHA256 = (
    "50382671c7c0d811f52d23d80db4f9fb9b4b312b88166b94a8a152ed087fae75")


def test_plan_fractions_are_frozen_bit_for_bit():
    digest = hashlib.sha256()
    for k in range(1, 6):
        for m in range(1, 7):
            digest.update("".join(float.hex(st.fraction) for st in
                                  suzuki.build_plan(k, m).steps).encode())
    assert digest.hexdigest() == PLAN_FRACTIONS_SHA256


def test_plans_ignore_the_callers_decimal_context():
    want_p, want = suzuki.p_coefficient(3), suzuki.build_plan(3, 2)
    suzuki.p_coefficient.cache_clear()
    suzuki.build_plan.cache_clear()
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        ctx.rounding = decimal.ROUND_FLOOR
        ctx.traps[decimal.Inexact] = True
        assert suzuki.build_plan(3, 2) == want
        assert suzuki.p_coefficient(3) == want_p


def test_plan_base_cases():
    plan = suzuki.build_plan(1, 2)
    assert plan.steps == (PlanStep(1, 0.5), PlanStep(2, 1.0), PlanStep(1, 0.5))
    assert suzuki.build_plan(1, 1).steps == (PlanStep(1, 1.0),)
    plan3 = suzuki.build_plan(1, 3)
    assert plan3.steps == (PlanStep(1, 0.5), PlanStep(2, 0.5), PlanStep(3, 1.0),
                           PlanStep(2, 0.5), PlanStep(1, 0.5))


def test_one_term_plans_skip_the_recursion():
    """A one-term plan is the single step (1, 1.0) at every order, built
    without walking the 5^(k-1) leaves of the order recursion."""
    start = time.process_time()
    for k in (10, 30, 60):
        assert suzuki.build_plan(k, 1).steps == (PlanStep(1, 1.0),)
    assert time.process_time() - start < 1


def test_plan_cache_keeps_argument_types_apart():
    # once the int plans are cached, a float or bool argument equal to
    # their k or m is still refused
    suzuki.build_plan(2, 3)
    suzuki.build_plan(1, 3)
    suzuki.build_plan(2, 1)
    for k, m in ((2.0, 3), (True, 3), (2, True)):
        with pytest.raises(PlanError, match="must be a positive integer"):
            suzuki.build_plan(k, m)


def test_plan_second_order_two_terms():
    # Hand-expanded merge of the five scaled copies of the order-2 base.
    p = float(suzuki.p_coefficient(2))
    q = 1.0 - 4.0 * p
    expected = [(1, p / 2), (2, p), (1, p), (2, p), (1, (p + q) / 2),
                (2, q), (1, (p + q) / 2), (2, p), (1, p), (2, p), (1, p / 2)]
    plan = suzuki.build_plan(2, 2)
    assert len(plan.steps) == 11
    for st, (term, frac) in zip(plan.steps, expected):
        assert st.term == term
        assert st.fraction == pytest.approx(frac, rel=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_plan_invariants(k, m):
    plan = suzuki.build_plan(k, m)
    assert len(plan.steps) == suzuki.exponential_count(k, m)
    assert len(plan.steps) == 2 * (m - 1) * 5 ** (k - 1) + 1
    sums = {}
    prev = None
    for st in plan.steps:
        assert 1 <= st.term <= m
        assert st.term != prev
        assert st.fraction != 0.0
        sums[st.term] = sums.get(st.term, 0.0) + st.fraction
        prev = st.term
    for j in range(1, m + 1):
        assert sums[j] == pytest.approx(1.0, abs=1e-13)


def test_plan_is_palindromic():
    plan = suzuki.build_plan(3, 4)
    rev = plan.steps[::-1]
    for a, b in zip(plan.steps, rev):
        assert a.term == b.term
        assert a.fraction == pytest.approx(b.fraction, rel=1e-13)


def test_plan_validation_rejects_garbage():
    with pytest.raises(PlanError):
        suzuki.ProductFormulaPlan(1, 2, (PlanStep(1, 0.5), PlanStep(2, 1.0)))
    with pytest.raises(PlanError):
        suzuki.ProductFormulaPlan(
            1, 2, (PlanStep(1, 0.5), PlanStep(1, 1.0), PlanStep(2, 0.5)))
    with pytest.raises(PlanError):
        suzuki.build_plan(0, 2)
    with pytest.raises(PlanError):
        suzuki.build_plan(1, 0)


def test_build_plan_refuses_a_plan_too_long_to_build(monkeypatch):
    """A plan past _MAX_PLAN_STEPS is refused at once, naming its length;
    one at the limit builds, and the order-18 plan for three terms is
    within it."""
    assert suzuki.exponential_count(9, 3) == 1_562_501
    assert suzuki.exponential_count(9, 3) <= suzuki._MAX_PLAN_STEPS
    start = time.process_time()
    with pytest.raises(PlanError, match="has 4882812501 steps"):
        suzuki.build_plan(14, 3)
    assert time.process_time() - start < 1
    # the lru cache would hand back a plan built before the limit moved
    suzuki.build_plan.cache_clear()
    monkeypatch.setattr(suzuki, "_MAX_PLAN_STEPS",
                        suzuki.exponential_count(2, 7))
    assert len(suzuki.build_plan(2, 7).steps) == 61
    with pytest.raises(PlanError, match="order-6 plan for 7 terms has 301"):
        suzuki.build_plan(3, 7)


def test_plan_sums_fractions_exactly():
    # term 1's 626 fractions sum to exactly 1, but a running sum rounds
    # each addition past 128 up by 2^-46 and misses 1 by 2.6e-12
    ones = [1 - 2.0 ** -46] * 313 + [-1.0] * 312 + [313 * 2.0 ** -46]
    twos = [0.5, -0.5] * 312 + [1.0]
    running = 0.0
    for f in ones:
        running += f
    assert abs(running - 1.0) > TOL.plan_fraction_sum
    steps = [PlanStep(1, ones[0])]
    for f1, f2 in zip(ones[1:], twos):
        steps += [PlanStep(2, f2), PlanStep(1, f1)]
    plan = suzuki.ProductFormulaPlan(5, 2, tuple(steps))
    assert len(plan.steps) == suzuki.exponential_count(5, 2)


def test_choose_k_values():
    assert suzuki.choose_k(2, 100.0, 1e-3) == 1
    assert suzuki.choose_k(1, 5.0 ** 35, 1.0) == 3
    assert suzuki.choose_k(1, 1.0, 1.0) == 1
    # argument below 1 clamps to the minimum order
    assert suzuki.choose_k(1, 1e-6, 1.0) == 1
    with pytest.raises(PlanError):
        suzuki.choose_k(1, 1.0, 0.0)


def test_choose_k_grows_slowly():
    prev = 1
    for expo in range(0, 60, 5):
        k = suzuki.choose_k(1, 10.0 ** expo, 1.0)
        assert k >= prev
        prev = k
    assert prev >= 3


def test_choose_r_frozen_values():
    assert suzuki.choose_r(1, 2, 1.0, 0.01) == 253
    assert suzuki.choose_r(2, 2, 5.0, 0.01) == 2515
    assert suzuki.choose_r(1, 1, 1.0, 1.0) == 9


def test_choose_r_scaling_in_tau():
    # doubling tau should multiply r by about 2^(1+1/2k)
    r1 = suzuki.choose_r(1, 2, 8.0, 0.01)
    r2 = suzuki.choose_r(1, 2, 16.0, 0.01)
    assert r2 / r1 == pytest.approx(2.0 ** 1.5, rel=2e-3)


def test_choose_r_window_warning():
    # the note is a value; choose_r's r is the formula's either way
    cases = [((1, 1, 1.0, 2.0), 7, "eps=2.0, 2m5^(k-1)tau=2.0"),  # eps > 1
             ((1, 1, 0.1, 0.5), 1, "eps=0.5, 2m5^(k-1)tau=0.2"),  # tau small
             ((1, 2, 1.0, 0.01), 253, None),  # inside the window
             ((1, 2, 0.0, 0.01), 1, None)]  # tau = 0: no formula, no note
    for args, r, figures in cases:
        assert suzuki.choose_r(*args) == r
        want = [] if figures is None else [
            f"slice-count formula used outside its window ({figures})"]
        assert suzuki.window_notes(*args) == want


def test_integrator_error_bound_frozen_value():
    val = suzuki.integrator_error_bound(1, 2, 1.0, 253)
    assert val == pytest.approx(LEMMA_1_2_1_253, rel=1e-12)
    assert val == pytest.approx(0.0049993, rel=1e-4)


def test_integrator_error_bound_r_scaling():
    # quadrupling r divides the k=2 bound by 4^4
    b1 = suzuki.integrator_error_bound(2, 2, 1.0, 400)
    b2 = suzuki.integrator_error_bound(2, 2, 1.0, 1600)
    assert b1 / b2 == pytest.approx(4.0 ** 4, rel=1e-12)


def test_integrator_error_bound_zero_time():
    assert suzuki.integrator_error_bound(1, 2, 0.0, 10) == 0.0


def test_integrator_error_bound_stays_positive_past_float_range():
    # the true bound 5 (4/r)^3 r = 3.2e-398 is below the smallest float
    assert suzuki.integrator_error_bound(1, 2, 1.0, 10 ** 200) == math.ulp(0.0)


def test_sharp_bound_stays_positive_past_float_range():
    # about (8/3) 4^3 / r^2 = 1.7e-398
    assert (suzuki.integrator_error_bound_sharp(1, 2, 1.0, 10 ** 200)
            == math.ulp(0.0))


def test_sharp_bound_keeps_an_underflowed_slice_term():
    # u = (8/3)(4/r)^3 = 1.7e-357 underflows, but r u = (8/3) 4^3 / r^2 does not
    assert suzuki.integrator_error_bound_sharp(1, 2, 1.0, 10 ** 120) == (
        pytest.approx(8.0 / 3.0 * 64.0 * 1e-240, rel=1e-12))


def test_sharp_bound_reads_inf_past_float_range():
    # at the linear restriction's edge u = (8/3)(1/2)^3 = 1/3, and
    # (4/3)^8000 - 1 is past float range: inf, not an OverflowError
    assert suzuki.restriction_values(1, 2, 1000.0, 8000)[0] == 1.0
    assert suzuki.integrator_error_bound_sharp(1, 2, 1000.0, 8000) == math.inf
    # so choose_r_sharp can bisect across such counts
    r = suzuki.choose_r_sharp(10, 3, 9e249, 1e-300)
    assert suzuki.integrator_error_bound_sharp(10, 3, 9e249, r) <= 1e-300


def test_commutator_bound_stays_positive_past_float_range():
    # 0.7^3 x 2 / r^2 = 6.9e-401
    assert suzuki.commutator_error_bound(2.0, -0.7, 10 ** 200) == math.ulp(0.0)


def test_integrator_error_bound_restriction_errors():
    # r=4: the linear condition 4*2*1/4 = 2 > 1 fails
    assert suzuki.integrator_error_bound(1, 2, 1.0, 4) is None
    # r=10: linear is 0.8 but the power condition is 16/3*64/100 = 3.41
    assert suzuki.integrator_error_bound(1, 2, 1.0, 10) is None
    assert not suzuki.restriction_check(1, 2, 1.0, 10)
    a, b = suzuki.restriction_values(1, 2, 1.0, 10)
    assert a == pytest.approx(0.8)
    assert b == pytest.approx(1024.0 / 300.0)
    # past float range the power condition reads as violated, not a crash
    assert suzuki.restriction_values(1, 2, 1e200, 1) == (8e200, math.inf)
    assert not suzuki.restriction_check(1, 2, 1e200, 1)


def test_sharp_bound_frozen_value_and_dominance():
    sharp = suzuki.integrator_error_bound_sharp(1, 2, 1.0, 253)
    assert sharp == pytest.approx(SHARP_1_2_1_253, rel=1e-12)
    # the pre-form only needs the linear restriction
    assert suzuki.integrator_error_bound_sharp(1, 2, 1.0, 10) is not None
    assert suzuki.integrator_error_bound_sharp(1, 2, 1.0, 4) is None
    # and never exceeds the simplified closed form where both apply
    for k in (1, 2, 3):
        for m in (1, 2, 4):
            for tau in (0.5, 1.0, 10.0):
                r = suzuki.choose_r(k, m, tau, 0.01)
                lemma = suzuki.integrator_error_bound(k, m, tau, r)
                assert suzuki.integrator_error_bound_sharp(k, m, tau, r) <= lemma


def test_bounds_are_none_at_the_commutator_rule_parity_r():
    # the 64-bit parity ladder: two pieces at tau = 32 pi.  r = 576, the
    # commutator rule's count there, fails the linear restriction
    # (4 * 2 * 32 pi / 576 = 1.396), so neither bound holds
    tau = math.pi * 64 / 2.0
    assert suzuki.restriction_values(1, 2, tau, 576)[0] > 1.0
    assert suzuki.integrator_error_bound(1, 2, tau, 576) is None
    assert suzuki.integrator_error_bound_sharp(1, 2, tau, 576) is None


def test_nexp_bound_frozen_value():
    res = suzuki.nexp_bound(1, 2, 1.0, 0.01)
    assert isinstance(res, BoundResult)
    assert res.value == pytest.approx(NEXP_1_2_1_001, rel=1e-12)
    assert res.within_window
    assert not suzuki.nexp_bound(1, 2, 1.0, 2.0).within_window
    assert not suzuki.nexp_bound(1, 1, 0.01, 0.5).within_window
    # past float range the bound is infinite, as the order-free one is
    assert suzuki.nexp_bound(10, 2, 1e300, 0.1).value == math.inf
    assert suzuki.nexp_bound_optimal(2, 1e300, 0.1)[1].value == math.inf


def test_nexp_bound_dominates_actual_plan_cost():
    # Inside the window the bound covers the exact merged count times the
    # chosen slice number.
    for k in (1, 2, 3):
        for m in (1, 2, 4):
            for tau in (1.0, 10.0, 100.0):
                for eps in (1e-4, 0.01, 1.0):
                    res = suzuki.nexp_bound(k, m, tau, eps)
                    if not res.within_window:
                        continue
                    r = suzuki.choose_r(k, m, tau, eps)
                    actual = r * suzuki.exponential_count(k, m)
                    assert actual <= res.value


def test_nexp_bound_optimal_frozen_value():
    k, res = suzuki.nexp_bound_optimal(2, 100.0, 1e-3)
    assert k == 1
    assert res.value == pytest.approx(NEXP_FREE_2_100_1E3, rel=1e-12)
    assert res.within_window
    assert not suzuki.nexp_bound_optimal(1, 10.0, 0.5)[1].within_window


def test_nexp_bound_optimal_dominates_specific():
    for m in (1, 2, 4):
        for tau in (30.0, 100.0, 1000.0):
            for eps in (1e-6, 1e-3, 1.0):
                k, free = suzuki.nexp_bound_optimal(m, tau, eps)
                if not free.within_window:
                    continue
                specific = suzuki.nexp_bound(k, m, tau, eps)
                assert free.value >= specific.value * (1.0 - 1e-12)


def _random_terms(dim, m, seed, total_norm=1.0):
    rng = np.random.default_rng(seed)
    hams = [numerics.random_hermitian(dim, rng) for _ in range(m)]
    scale = total_norm / numerics.spectral_norm(sum(hams))
    return [H * scale for H in hams]


def test_simulate_zero_time_is_identity():
    rng = np.random.default_rng(0)
    psi = numerics.random_state(4, rng)
    terms = [suzuki.hermitian_evolver(H) for H in _random_terms(4, 2, 1)]
    out = suzuki.simulate(terms, 0.0, 1, 5, psi)
    assert np.array_equal(out, psi)


def test_simulate_single_term_is_exact():
    rng = np.random.default_rng(2)
    dim = 8
    H = numerics.random_hermitian(dim, rng, norm=1.0)
    psi = numerics.random_state(dim, rng)
    out = suzuki.simulate([suzuki.hermitian_evolver(H)], 1.2, 2, 3, psi)
    expected = numerics.hermitian_expm(H, 1.2) @ psi
    assert np.linalg.norm(out - expected) < 1e-11


def test_simulate_meets_worked_error_bound():
    hams = _random_terms(8, 2, seed=7, total_norm=1.0)  # tau = 1 at t = 1
    rng = np.random.default_rng(8)
    psi = numerics.random_state(8, rng)
    out = suzuki.simulate([suzuki.hermitian_evolver(H) for H in hams],
                          1.0, 1, 253, psi)
    exact = numerics.hermitian_expm(sum(hams), 1.0) @ psi
    dist = numerics.trace_distance(numerics.pure_density(out),
                                   numerics.pure_density(exact))
    assert dist <= LEMMA_1_2_1_253


def test_simulate_calls_each_evolver_per_plan():
    calls = []
    dim = 4
    hams = _random_terms(dim, 3, seed=3)
    evs = []
    for j, H in enumerate(hams):
        base = suzuki.hermitian_evolver(H)
        evs.append(lambda s, psi, j=j, base=base: (calls.append(j), base(s, psi))[1])
    rng = np.random.default_rng(4)
    psi = numerics.random_state(dim, rng)
    suzuki.simulate(evs, 0.5, 2, 4, psi)
    assert len(calls) == 4 * suzuki.exponential_count(2, 3)


def test_plan_unitary_matches_sequential_simulation():
    hams = _random_terms(4, 3, seed=5)
    rng = np.random.default_rng(6)
    psi = numerics.random_state(4, rng)
    U = suzuki.plan_unitary(hams, 0.9, 2, 7)
    via_states = suzuki.simulate([suzuki.hermitian_evolver(H) for H in hams],
                                 0.9, 2, 7, psi)
    assert np.linalg.norm(U @ psi - via_states) < 1e-12


@pytest.mark.parametrize("k,expected_slope", [(1, -2.0), (2, -4.0)])
def test_error_scaling_order(k, expected_slope):
    hams = _random_terms(8, 2, seed=11, total_norm=1.0)
    total = sum(hams)
    exact = numerics.hermitian_expm(total, 1.0)
    rs = [4, 8, 16, 32, 64, 128, 256]
    errs = [numerics.unitary_diff_norm(suzuki.plan_unitary(hams, 1.0, k, r), exact)
            for r in rs]
    pts = [(math.log(r), math.log(e)) for r, e in zip(rs, errs) if e > 1e-11]
    assert len(pts) >= 3
    slope = np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0]
    assert abs(slope - expected_slope) < 0.3


def test_slice_count_accepts_numpy_integers():
    hams = _random_terms(4, 2, seed=9)
    psi = numerics.random_state(4, np.random.default_rng(10))
    terms = [suzuki.hermitian_evolver(H) for H in hams]
    assert np.array_equal(suzuki.simulate(terms, 0.8, 1, np.int64(3), psi),
                          suzuki.simulate(terms, 0.8, 1, 3, psi))
    assert np.array_equal(suzuki.plan_unitary(hams, 0.8, 2, np.int64(3)),
                          suzuki.plan_unitary(hams, 0.8, 2, 3))
    assert (suzuki.restriction_values(1, 2, 0.1, np.int64(3))
            == suzuki.restriction_values(1, 2, 0.1, 3))
    for bad in (0, -1, 2.5, 3.0, "3"):
        with pytest.raises(PlanError, match="slice count"):
            suzuki.simulate(terms, 0.8, 1, bad, psi)
        with pytest.raises(PlanError, match="slice count"):
            suzuki.plan_unitary(hams, 0.8, 1, bad)
        with pytest.raises(PlanError, match="slice count"):
            suzuki.restriction_values(1, 2, 0.1, bad)
        with pytest.raises(PlanError, match="slice count"):
            suzuki.commutator_error_bound(1.0, 0.8, bad)


def _commutator(a, b):
    return a @ b - b @ a


def _dense_commutator_norms(hams):
    """Exact spectral norms of the two nested commutators of each term."""
    rows = []
    for g, H in enumerate(hams):
        S = sum(hams[g + 1:], np.zeros_like(H))
        rows.append((numerics.spectral_norm(_commutator(S, _commutator(S, H))),
                     numerics.spectral_norm(_commutator(H, _commutator(H, S)))))
    return rows


def test_commutator_alpha_weights_and_validation():
    assert suzuki.commutator_alpha([[12.0, 0.0], [0.0, 24.0]]) == 2.0
    assert suzuki.commutator_alpha([[24.0, 12.0]]) == 2.5
    assert suzuki.commutator_alpha(np.zeros((0, 2))) == 0.0
    for bad in ([[1.0, -1.0]], [[float("nan"), 0.0]], [[float("inf"), 0.0]],
                [1.0, 2.0, 3.0], [[1, 2, 3], [4, 5, 6]], [[1.0, 2.0], [3.0]]):
        with pytest.raises(PlanError):
            suzuki.commutator_alpha(bad)
    assert suzuki.commutator_error_bound(2.0, -0.5, 2) == 0.0625
    assert suzuki.commutator_error_bound(2.0, 0.0, 1) == 0.0
    for alpha, t, message in ((float("nan"), 1.0, "alpha"),
                              (-1.0, 1.0, "alpha"),
                              (float("inf"), 1.0, "alpha"),
                              (1.0, float("inf"), "tau"),
                              (1.0, float("nan"), "tau")):
        with pytest.raises(PlanError, match=message):
            suzuki.commutator_error_bound(alpha, t, 3)


def test_choose_r_commutator_is_the_smallest_sufficient_count():
    rng = np.random.default_rng(13)
    for _ in range(300):
        alpha = float(rng.uniform(0.0, 5.0))
        t = float(rng.uniform(-3.0, 3.0))
        eps = float(10.0 ** rng.uniform(-8.0, 0.0))
        r = suzuki.choose_r_commutator(alpha, t, eps)
        assert suzuki.commutator_error_bound(alpha, t, r) <= eps
        assert r == 1 or suzuki.commutator_error_bound(alpha, t, r - 1) > eps
    assert suzuki.choose_r_commutator(0.0, 5.0, 1e-9) == 1
    assert suzuki.choose_r_commutator(7.0, 0.0, 1e-9) == 1
    # t^3 alpha / eps = 64 exactly: r = 8, not 9
    assert suzuki.choose_r_commutator(0.5, 2.0, 0.0625) == 8
    for alpha, t, eps in ((-1.0, 1.0, 0.1), (float("nan"), 1.0, 0.1),
                          (1.0, float("inf"), 0.1), (1.0, 1.0, 0.0)):
        with pytest.raises(PlanError):
            suzuki.choose_r_commutator(alpha, t, eps)
    for rule, args in ((suzuki.choose_r_commutator, (1.0, 1e250, 0.1)),
                       (suzuki.choose_r_commutator, (1e300, 1.0, 1e-300)),
                       (suzuki.choose_r, (10, 2, 1e300, 0.1)),
                       (suzuki.choose_r_sharp, (10, 2, 1e300, 0.1)),
                       (suzuki.choose_r_sharp, (1, 2, 1e250, 1e-10)),
                       (suzuki.choose_k, (2, 1e300, 1e-300))):
        with pytest.raises(PlanError, match="overflows"):
            rule(*args)
    with pytest.raises(PlanError, match="overflows"):
        suzuki.restriction_values(1, 2, 1.0, 10 ** 400)
    # 5^(k-1) fits a float up to k = 442 and not past it
    suzuki.restriction_values(442, 1, 1.0, 1)
    for rule, args in ((suzuki.restriction_values, (443, 2, 1.0, 5)),
                       (suzuki.integrator_error_bound, (443, 2, 1.0, 5)),
                       (suzuki.integrator_error_bound_sharp, (443, 2, 1.0, 5)),
                       (suzuki.choose_r, (443, 2, 1.0, 0.1)),
                       (suzuki.choose_r_sharp, (443, 2, 1.0, 0.1)),
                       (suzuki.nexp_bound, (443, 2, 1.0, 0.1))):
        with pytest.raises(PlanError, match="overflows"):
            rule(*args)
    # past float range of r^(2k) or x^(2k+1), the ratio is x (x/r)^(2k)
    a, b = suzuki.restriction_values(2, 2, 1.0, 10 ** 100)
    assert (a, b) == (2 * 20.0 / 10 ** 100, 16.0 / 3.0 * 20.0 * 2e-99 ** 4)
    assert suzuki.integrator_error_bound(2, 2, 1.0, 10 ** 78) == (
        5.0 * 20.0 * 2e-77 ** 4)
    # and where that underflows, the bound stays the smallest float, not 0
    assert 5.0 * 20.0 * 2e-99 ** 4 == 0.0
    assert suzuki.integrator_error_bound(2, 2, 1.0, 10 ** 100) == (
        math.ulp(0.0))
    assert suzuki.restriction_values(1, 1, 1e120, 10 ** 200)[1] == (
        16.0 / 3.0 * 2e120 * 2e-80 ** 2)
    # far past 2^53 a unit step no longer moves float(r)
    for t in (1e20, 1e100, 1e200):
        r = suzuki.choose_r_commutator(1.0, t, 1e-3)
        assert suzuki.commutator_error_bound(1.0, t, r) <= 1e-3
    assert suzuki.choose_r_commutator(0.0, 1e250, 0.1) == 1
    assert suzuki.commutator_error_bound(0.0, 1e250, 1) == 0.0
    assert suzuki.commutator_error_bound(1.0, 1e250, 1) == float("inf")


def test_commutator_bound_dominates_measured_error_on_dense_terms():
    """t^3 alpha / r^2 with exact norms bounds the k = 1 error of random
    dense terms.  Near t = 0 the bound is tight to leading order, so
    weights 1/12 and 1/24 swapped, or the terms taken in reverse order,
    give a value that the measured error exceeds somewhere."""
    rng = np.random.default_rng(41)
    points = swapped_fails = reversed_fails = 0
    for m in (1, 2, 3, 4):
        for inner_scale in (1.0, 10.0):
            hams = [numerics.random_hermitian(6, rng, norm=1.0)
                    for _ in range(m)]
            hams[-1] = hams[-1] * inner_scale
            norms = np.array(_dense_commutator_norms(hams))
            alpha = suzuki.commutator_alpha(norms)
            swapped = suzuki.commutator_alpha(norms[:, ::-1])
            backwards = suzuki.commutator_alpha(
                _dense_commutator_norms(hams[::-1]))
            for t in (0.01, 0.05, -0.3, 1.0, 2.0):
                exact = numerics.hermitian_expm(sum(hams), t)
                for r in (1, 2, 4, 16):
                    measured = numerics.unitary_diff_norm(
                        exact, suzuki.plan_unitary(hams, t, 1, r))
                    bound = suzuki.commutator_error_bound(alpha, t, r)
                    assert measured <= bound + NOISE, (m, inner_scale, t, r)
                    points += 1
                    swapped_fails += measured > suzuki.commutator_error_bound(
                        swapped, t, r) + NOISE
                    reversed_fails += measured > suzuki.commutator_error_bound(
                        backwards, t, r) + NOISE
    assert points == 160
    assert swapped_fails and reversed_fails, (swapped_fails, reversed_fails)


def _sharp_allows(k, m, tau, r, eps):
    return (suzuki.restriction_values(k, m, tau, r)[0] <= 1.0
            and suzuki.integrator_error_bound_sharp(k, m, tau, r) <= eps)


def test_choose_r_sharp_is_the_smallest_sufficient_count():
    # eps up to 1e5 reaches answers at the linear restriction's own minimum
    rng = np.random.default_rng(17)
    for _ in range(300):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 8))
        tau = float(10.0 ** rng.uniform(-3.0, 3.0))
        eps = float(10.0 ** rng.uniform(-10.0, 5.0))
        r = suzuki.choose_r_sharp(k, m, tau, eps)
        assert _sharp_allows(k, m, tau, r, eps), (k, m, tau, eps)
        assert r == 1 or not _sharp_allows(k, m, tau, r - 1, eps), (
            k, m, tau, eps)
    # the worked point, and the 64-bit ladder at eps 0.2
    assert suzuki.choose_r_sharp(1, 2, 1.0, 0.01) == 131
    assert suzuki.choose_r_sharp(1, 2, math.pi * 32, 0.2) == 30840
    assert suzuki.choose_r_sharp(1, 2, 0.0, 1e-9) == 1
    # inside choose_r's window the sharp pre-form never asks for more
    for k in (1, 2, 3):
        for m in (1, 2, 4):
            for tau in (0.5, 1.0, 10.0, 100.0):
                for eps in (1e-6, 1e-3, 0.2, 1.0):
                    if 2 * m * 5 ** (k - 1) * tau >= 1:
                        assert (suzuki.choose_r_sharp(k, m, tau, eps)
                                <= suzuki.choose_r(k, m, tau, eps))
    # far below float resolution of a slice term, r u ~ (8/3) 4^3 / r^2
    r = suzuki.choose_r_sharp(1, 2, 1.0, 1e-250)
    assert r == pytest.approx(math.sqrt(8.0 / 3.0 * 64.0 / 1e-250), rel=1e-9)
    for args in ((0, 2, 1.0, 0.1), (1, 0, 1.0, 0.1), (1, 2, -1.0, 0.1),
                 (1, 2, float("nan"), 0.1), (1, 2, 1.0, 0.0),
                 (1, 2, 1.0, float("inf"))):
        with pytest.raises(PlanError):
            suzuki.choose_r_sharp(*args)


def test_choose_r_sharp_meets_eps_in_measured_error():
    """The sharp slice count keeps the measured operator error of random
    dense terms (norm 1, so tau = t) within eps."""
    rng = np.random.default_rng(29)
    points = 0
    for m in (1, 2, 4):
        hams = [numerics.random_hermitian(6, rng, norm=1.0) for _ in range(m)]
        for t in (0.1, 0.5, 1.0, 2.0):
            exact = numerics.hermitian_expm(sum(hams), t)
            for k in (1, 2, 3):
                for eps in (0.3, 1e-2, 1e-4):
                    r = suzuki.choose_r_sharp(k, m, t, eps)
                    measured = numerics.unitary_diff_norm(
                        exact, suzuki.plan_unitary(hams, t, k, r))
                    sharp = suzuki.integrator_error_bound_sharp(k, m, t, r)
                    assert measured <= sharp + NOISE, (m, t, k, eps)
                    assert sharp <= eps
                    points += 1
    assert points == 108
