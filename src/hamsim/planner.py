"""One planner for every evolution: the slice rule, the bounds, the run.

`simulate` (the merged coloring pieces of an oracle) and `parity` (the
ladder's two pieces) hand their pieces to plan_and_run.  It picks (k, r)
by the cheaper of two rigorous rules, reports every bound at the chosen
(k, r) and the paper rule's validity-window note as a value, then
quantizes, packs, builds the plan and applies it.
simulate_pipeline, the whole `simulate` toolchain as one call, lives here
too; the CLI keeps argument parsing and JSON.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import _kernels, coloring, numerics, one_sparse, suzuki
from .config import ColoringError, HamsimError, PlanError


def check_seed(seed: int | None, name: str) -> int | None:
    """Pass a user seed through; numpy accepts only nonnegative ones."""
    if seed is not None and seed < 0:
        raise HamsimError(f"{name} must be nonnegative, got {seed}")
    return seed


def check_request(t: float, eps: float, k: int | None, r: int | None,
                  quantize: int | str | None) -> None:
    """Refuse what plan_and_run would refuse, before a run spends queries:
    a non-finite t, an eps that is not finite and positive, a given k or
    r that is not a positive integer, and a quantize that is none of None,
    "auto" and a bit count in 1..62."""
    if not math.isfinite(t):
        raise PlanError(f"evolution time must be finite, got {t}")
    if not (math.isfinite(eps) and eps > 0):
        raise PlanError(f"eps must be a finite positive number, got {eps}")
    if k is not None:
        suzuki.check_order(k)
    if r is not None:
        suzuki.check_slices(r)
    if quantize not in (None, "auto"):
        one_sparse.check_bits(quantize)


def plan_and_run(pieces: list[one_sparse.OneSparseTable], t: float,
                 eps: float, psi0: np.ndarray, norm: float, d: int, *,
                 k: int | None, r: int | None, quantize: int | str | None
                 ) -> tuple[dict, np.ndarray, list[int]]:
    """Choose (k, r), bound the error, and evolve psi0 by the pieces' plan.

    The pieces run in the order given (term 1 outermost), and their
    arguments are those check_request accepts.  Two rules offer a (k, r),
    each from the unquantized pieces: the commutator rule at k = 1
    (choose_r_commutator, from the nested commutator norms of the pieces
    in this order) and the paper's (choose_k, then choose_r at tau = |t|
    times the largest piece norm).  The fewest exponentials wins, a tie
    going to the commutator rule.  A given k = 1 takes the commutator
    rule and any other given k the paper's; a given r is used as given,
    at the given k or choose_k's.

    Every bound is taken at the chosen (k, r) and is None where it does
    not hold or apply: error_bound_paper (the closed form) and
    error_bound_commutator (k = 1 only); error_bound is the smaller of
    those that hold.  The piece count that chose r, m_plan, and tau and
    alpha all describe the pieces given, so quantizing cannot move the
    bounds.  warnings holds suzuki.window_notes for the paper's rule,
    whichever rule wins, and is empty for a given r.

    norm bounds ||H|| and d is H's sparsity: quantize "auto" takes
    precision_bits(norm |t|, d, k, eps), reported either way as
    precision_bits_recommended, and the pieces are rounded onto the grid
    norm / 2^bits (not at norm 0).  Pieces left empty are then dropped.

    Returns the figures (the JSON names of `simulate`), the evolved state
    and the indices of the pieces that ran, in plan order.
    """
    lam = max((p.norm for p in pieces), default=0.0)
    tau = lam * abs(t)
    alpha = suzuki.commutator_alpha(one_sparse.nested_commutator_norms(pieces))
    m_plan = max(len(pieces), 1)
    k_paper = k if k is not None else suzuki.choose_k(m_plan, tau, eps)
    r_paper = suzuki.choose_r(k_paper, m_plan, tau, eps)
    notes = suzuki.window_notes(k_paper, m_plan, tau, eps)
    r_commutator = suzuki.choose_r_commutator(alpha, t, eps)
    # (rule, k, r), in the order that breaks a tie
    rules = [("commutator", 1, r_commutator), ("paper", k_paper, r_paper)]
    if r is not None:
        r_rule, k, notes = "given", k_paper, []
    elif k is None:
        # the fewest exponentials, r times the plan length
        r_rule, k, r = min(rules, key=lambda rule: (
            rule[2] * suzuki.exponential_count(rule[1], m_plan)))
    else:
        r_rule, k, r = rules[0 if k == 1 else 1]

    bound_paper = suzuki.integrator_error_bound(k, m_plan, tau, r)
    bound_commutator = (suzuki.commutator_error_bound(alpha, t, r)
                        if k == 1 else None)

    bits_needed = one_sparse.precision_bits(norm * abs(t), d, k, eps)
    quantize_bits = bits_needed if quantize == "auto" else quantize
    if quantize_bits is not None and norm > 0:
        pieces = [one_sparse.quantize_table(p, quantize_bits, norm)
                  for p in pieces]
    kept = [g for g, p in enumerate(pieces) if p.entry_count]
    if kept:
        # checked before the plan is built, whose length grows as 5^(k-1)
        n_exp = one_sparse.exponential_total(
            r, suzuki.exponential_count(k, len(kept)))
        plan = suzuki.build_plan(k, len(kept))
        plan_length = len(plan.steps)
        psi = one_sparse.apply_product_formula(
            one_sparse.pack_tables([pieces[g] for g in kept]), plan, t, r,
            psi0)
    else:
        psi, n_exp, plan_length = psi0.copy(), 0, 0
    figures = {
        "k": k, "r": r, "r_rule": r_rule, "r_paper": r_paper,
        "r_commutator": r_commutator,
        "commutator_alpha": alpha, "tau": tau, "piece_norm_max": lam,
        "m_pieces": len(kept), "plan_length": plan_length, "n_exp": n_exp,
        "precision_bits_recommended": bits_needed,
        "quantize_bits": quantize_bits,
        "restriction_ok": suzuki.restriction_check(k, m_plan, tau, r),
        "error_bound": min((b for b in (bound_paper, bound_commutator)
                            if b is not None), default=None),
        "error_bound_paper": bound_paper,
        "error_bound_commutator": bound_commutator, "warnings": notes}
    return figures, psi, kept


def simulate_pipeline(orc, t: float, eps: float, k: int | None = None,
                      r: int | None = None, state_seed: int | None = None,
                      quantize: int | str | None = None,
                      verify: bool = True) -> dict:
    """Decompose, evolve, and account: the whole toolchain as one call.

    coloring.decompose, one counted read of every slot, gives the
    Decomposition: the piece tables, the entries and the read's dim * d
    base queries; it checks the read once, before any table is built, with
    or without verify.  Verification takes that value and checks the
    tables against the entries and cold piece lookups; the
    measured error compares the evolved state with exp(-iHt) psi0 from the
    entries; norm_bound, the largest absolute row sum, bounds ||H|| and
    sets the precision grid.
    No dense matrix is built at any size.  quantize is None (off),
    "auto" (precision_bits_recommended) or a bit count.  What
    check_request refuses is refused before any query is spent.

    Verification checks the coloring's pieces; then merge_disjoint merges
    the non-empty ones that share no state, first fit, largest first, and
    the merged pieces run in order of entry count, largest first.  Every
    bound holds for any split of H into Hermitian terms in any order; a
    merged piece's norm is its largest constituent's, so tau does not
    grow while m shrinks, and with the largest pieces outermost their
    suffix sums S_g are smallest, so alpha and r shrink.  plan_and_run
    chooses (k, r) and bounds the error on this one list, so the bound
    describes the plan that runs; m_pieces counts what is left once
    quantizing has dropped pieces.
    piece_labels names each piece's constituent labels, and
    m_pieces_floor, the longest row of H, is a lower bound on the pieces
    any merge can reach (a 1-sparse piece holds at most one entry of a
    row), not a count any merge is known to reach.  A lookup
    of a merged piece runs its constituents' lookups, so the paper's
    budget base_query_bound is 2(z+2) constituent_lookups, r times the
    constituents of the plan's steps; unmerged that is 2(z+2) n_exp.
    """
    check_request(t, eps, k, r, quantize)
    z = coloring.iterate_count(orc.n)
    rng = np.random.default_rng(check_seed(state_seed, "--state-seed"))

    dec = coloring.decompose(orc)

    verification = None
    if verify:
        report = coloring.verify_coloring(orc, dec)
        verification = {**dataclasses.asdict(report),
                        "failures": list(report.failures)}
        if not report.ok:
            raise ColoringError(
                "decomposition failed verification: " + "; ".join(report.failures))

    labels = coloring.enumerate_labels(orc.d, orc.n)
    kept = [g for g, tb in enumerate(dec.tables) if tb.entry_count]
    tables, groups = one_sparse.merge_disjoint([dec.tables[g] for g in kept])
    piece_labels = [[labels[kept[c]] for c in group] for group in groups]

    if state_seed is None:
        psi0 = np.zeros(orc.dim, dtype=np.complex128)
        psi0[0] = 1.0
    else:
        psi0 = numerics.random_state(orc.dim, rng)
    norm_bound = numerics.max_row_sum(dec.entries[0], dec.entries[2])
    figures, psi, ran = plan_and_run(tables, t, eps, psi0, norm_bound,
                                     orc.d, k=k, r=r, quantize=quantize)
    piece_labels = [piece_labels[g] for g in ran]
    steps = suzuki.build_plan(figures["k"], len(ran)).steps if ran else ()
    lookups = figures["r"] * sum(len(piece_labels[s.term - 1]) for s in steps)

    exact = numerics.expm_action(*dec.entries, t, psi0)
    measured = numerics.pure_state_distance(psi, exact)
    bound = figures["error_bound"]
    base_bound = 2 * (z + 2) * lookups
    result = {
        **figures, "n": orc.n, "d": orc.d, "dim": orc.dim, "z": z,
        "time": t, "eps": eps, "norm_bound": norm_bound,
        "m_pieces_floor": int(np.bincount(dec.entries[0], minlength=1).max()),
        "piece_labels": [[[lb.i, lb.j, lb.nu] for lb in group]
                         for group in piece_labels],
        "constituent_lookups": lookups, "verification": verification,
        "base_queries": dec.queries, "base_query_bound": base_bound,
        "base_queries_ok": (dec.queries <= base_bound) if ran else None,
        "bound_slack": measured / bound if bound else None,
        "measured_error": measured, "error_ok": measured <= eps,
        "backend": _kernels.BACKEND}
    if orc.dim <= 64:
        result["state"] = [[float(a.real), float(a.imag)] for a in psi]
    return result
