"""Parity ladder: structure, norm, exact transfer, end-to-end runs."""

import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hamsim import numerics, one_sparse, oracle, suzuki
from hamsim.config import OracleError, PlanError, ValidityWindowWarning
from hamsim.one_sparse import (extract_table, pack_tables, precision_bits,
                               quantize_table, table_to_dense)
from hamsim.parity import (READOUT_EPS, ParityInstance, build_parity_oracle,
                           exact_target_state, initial_state, register_bits,
                           run_parity, split_even_odd, state_index)


def test_instance_validation_and_counting():
    with pytest.raises(OracleError, match="empty"):
        ParityInstance([])
    with pytest.raises(OracleError, match="0 or 1"):
        ParityInstance([0, 2])
    inst = ParityInstance([1, 0, 1])
    assert inst.size == 3
    assert inst.bit(1) == 1 and inst.bit(2) == 0 and inst.bit(3) == 1
    assert inst.counter.count == 3
    with pytest.raises(OracleError, match="outside"):
        inst.bit(0)
    with pytest.raises(OracleError, match="outside"):
        inst.bit(4)
    # reference views are uncounted
    assert inst.parity() == 0
    assert inst.counter.count == 3


def test_register_and_state_indexing():
    assert register_bits(1) == 2
    assert register_bits(3) == 3
    assert register_bits(8) == 5
    assert state_index(3, 0, 0) == 0
    assert state_index(3, 1, 2) == 6
    with pytest.raises(OracleError):
        state_index(3, 2, 0)
    with pytest.raises(OracleError):
        state_index(3, 0, 4)


def test_ladder_matrix_small_instance():
    # N = 2, X = (1, 0): level 0-1 edges flip the rail, 1-2 edges keep it
    inst = ParityInstance([1, 0])
    H = oracle.to_dense(build_parity_oracle(inst))
    w = np.sqrt(2.0) / 2.0
    expect = np.zeros((8, 8), dtype=complex)

    def put(a, b, v):
        expect[a, b] = v
        expect[b, a] = v

    put(state_index(2, 0, 0), state_index(2, 1, 1), w)
    put(state_index(2, 1, 0), state_index(2, 0, 1), w)
    put(state_index(2, 0, 1), state_index(2, 0, 2), w)
    put(state_index(2, 1, 1), state_index(2, 1, 2), w)
    assert np.array_equal(H, expect)


def test_column_costs_at_most_two_bits():
    inst = ParityInstance([1, 1, 0, 1])
    orc = build_parity_oracle(inst)
    for x in range(orc.dim):
        inst.counter.reset()
        orc.query(x, 1)
        orc.query(x, 2)
        assert inst.counter.count <= 2


def test_norm_is_half_the_length():
    rng = np.random.default_rng(3)
    for N in range(1, 7):
        inst = ParityInstance(rng.integers(0, 2, size=N))
        H = oracle.to_dense(build_parity_oracle(inst))
        assert numerics.spectral_norm(H) == pytest.approx(N / 2, abs=1e-12)


def test_split_pieces_sum_to_ladder_and_are_one_sparse():
    inst = ParityInstance([0, 1, 1, 0, 1])
    dense = oracle.to_dense(build_parity_oracle(inst))
    even, odd = split_even_odd(inst)
    He = oracle.to_dense(even)
    Ho = oracle.to_dense(odd)
    assert np.array_equal(He + Ho, dense)
    for piece in (He, Ho):
        assert ((piece != 0).sum(axis=0) <= 1).all()
    # no edge is claimed twice
    assert not np.logical_and(He != 0, Ho != 0).any()


def test_split_column_costs_exactly_one_bit_when_coupled():
    inst = ParityInstance([1, 0, 1])
    even, odd = split_even_odd(inst)
    for piece in (even, odd):
        for x in range(piece.dim):
            inst.counter.reset()
            y, v = piece.column(x)
            assert inst.counter.count == (1 if v != 0 else 0)


def test_time_pi_transfer_is_exact():
    rng = np.random.default_rng(11)
    for N in list(range(1, 4)) + [6, 8]:
        for bits in (itertools.product((0, 1), repeat=N) if N <= 3
                     else [tuple(rng.integers(0, 2, size=N)) for _ in range(4)]):
            inst = ParityInstance(bits)
            H = oracle.to_dense(build_parity_oracle(inst))
            final = numerics.hermitian_expm(H, np.pi) @ initial_state(N)
            overlap = abs(np.vdot(exact_target_state(inst), final))
            assert overlap == pytest.approx(1.0, abs=1e-10)


def test_run_parity_end_to_end():
    inst = ParityInstance([1, 0, 1, 1, 0, 0, 1, 0])
    res = run_parity(inst, 0.2)
    assert res.correct and res.parity == inst.parity() == 0
    assert res.trace_error <= 0.2
    assert res.n_exp == 3 * res.r
    assert res.bit_queries == 4 * inst.size
    assert res.h_queries == 2 * (1 << register_bits(inst.size))
    assert res.lower_bound_ok
    assert res.h_queries >= inst.size / 4


def test_run_parity_both_parities_and_small_sizes():
    for bits in ([1], [0], [1, 1], [1, 0, 0, 1, 1]):
        inst = ParityInstance(bits)
        res = run_parity(inst, 0.5)
        assert res.correct
        assert res.trace_error <= 0.5


def test_run_parity_error_shrinks_with_eps():
    a = run_parity(ParityInstance([1, 0, 1, 1]), 0.5)
    b = run_parity(ParityInstance([1, 0, 1, 1]), 0.05)
    assert b.r > a.r
    assert b.trace_error < a.trace_error
    assert b.trace_error <= 0.05


def _ladder_rules(N, eps):
    """Each rule's (k, r) for an N-bit ladder, from suzuki and the pieces:
    tau is pi times the largest edge, max_j sqrt((N-j)(j+1))/2, and alpha
    the commutator prefactor of the two pieces, even first.  eps is the
    one the run plans at, capped at READOUT_EPS."""
    eps = min(eps, READOUT_EPS)
    tau = np.pi * max(np.sqrt((N - j) * (j + 1)) / 2 for j in range(N))
    # the bits only relabel the ladder states, which leaves alpha alone
    inst = ParityInstance([1] * N)
    tables = [replace(extract_table(p), dim=2 * (N + 1))
              for p in split_even_odd(inst)]
    alpha = suzuki.commutator_alpha(one_sparse.nested_commutator_norms(tables))
    k = suzuki.choose_k(2, tau, eps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWindowWarning)
        r_paper = suzuki.choose_r(k, 2, tau, eps)
    return {"commutator": (1, suzuki.choose_r_commutator(alpha, np.pi, eps)),
            "paper": (k, r_paper)}, tau, alpha


def _assert_within_bound(N, eps, res):
    """trace error <= error_bound <= eps, and the slack is their ratio.
    A 1-bit ladder is one edge piece, which runs exactly: its bound is
    0.0 and its trace error roundoff."""
    if N == 1:
        assert res.error_bound == 0.0 and res.bound_slack is None
        assert res.trace_error < 1e-12
    else:
        assert res.trace_error <= res.error_bound <= eps, (N, eps)
        assert res.bound_slack == res.trace_error / res.error_bound


def test_run_parity_takes_the_smaller_rule_and_stays_within_its_bound():
    """On ladders of 1 to 8 bits: each rule's r is what suzuki gives for
    the ladder's pieces, the commutator rule is the cheaper and chooses
    r, and trace error <= error_bound <= eps, the bound being the smaller
    of the paper's and the commutator's at the chosen (k, r)."""
    rng = np.random.default_rng(3)
    for N in range(1, 9):
        for eps in (0.5, 0.2, 0.02):
            rules, tau, alpha = _ladder_rules(N, eps)
            res = run_parity(ParityInstance(rng.integers(0, 2, size=N)), eps)
            assert (res.r_commutator, res.r_paper) == (
                rules["commutator"][1], rules["paper"][1])
            assert (res.r_rule, res.k, res.r) == (
                "commutator", 1, res.r_commutator)
            bounds = [b for b in (
                suzuki.integrator_error_bound(1, 2, tau, res.r),
                suzuki.commutator_error_bound(alpha, np.pi, res.r))
                if b is not None]
            assert res.error_bound == min(bounds)
            assert res.correct and res.warnings == ()
            _assert_within_bound(N, eps, res)
    # eps 100 plans at READOUT_EPS; one edge piece commutes with itself,
    # so the commutator rule takes one slice
    res = run_parity(ParityInstance([1]), 100.0)
    assert (res.r_rule, res.r, res.r_paper) == (
        "commutator", 1, _ladder_rules(1, READOUT_EPS)[0]["paper"][1])
    assert res.n_exp == 1  # the empty odd piece is not run
    assert res.correct and res.eps == 100.0
    _assert_within_bound(1, 100.0, res)


def test_run_parity_takes_the_cheapest_rule_on_a_grid():
    """N = 1..8 and 64 at eps 100, 0.5, 0.2 and 1e-2, and N = 256 at 0.2:
    the chosen rule needs the fewer exponentials, a tie going to the
    commutator rule; every query floor holds, trace error <= error_bound
    <= eps, and the parity is right at every eps, since a run plans at
    most at READOUT_EPS."""
    rng = np.random.default_rng(7)
    grid = [(N, eps) for N in [*range(1, 9), 64]
            for eps in (100.0, 0.5, 0.2, 1e-2)] + [(256, 0.2)]
    for N, eps in grid:
        rules, _, _ = _ladder_rules(N, eps)
        cost = {rule: r * suzuki.exponential_count(k, 2)
                for rule, (k, r) in rules.items()}
        res = run_parity(ParityInstance(rng.integers(0, 2, size=N)), eps)
        assert res.r_rule == min(cost, key=cost.get), (N, eps)
        assert (res.k, res.r) == rules[res.r_rule]
        assert res.correct and res.lower_bound_ok, (N, eps)
        _assert_within_bound(N, eps, res)


def test_run_parity_on_the_benchmark_ladder():
    """The 64-bit ladder drawn as the benchmark draws it, at eps 0.2: the
    slice count, the exponential count and the trace error, exactly."""
    bits = np.random.default_rng(1).integers(0, 2, 64)
    res = run_parity(ParityInstance([int(b) for b in bits]), 0.2)
    assert res.correct
    assert (res.r_rule, res.r, res.n_exp) == ("commutator", 576, 1728)
    assert res.trace_error == 0.007861662442512142
    assert res.trace_error <= res.error_bound <= 0.2


def test_run_parity_evolves_the_ladder_states_alone(monkeypatch):
    """For N = 1 to 8 (N = 1, 3 and 7 fill their power of two), plain and
    quantized, the kernel gets a state of the ladder's 2(N+1) entries, a
    spied run reports what an unspied one does, and its trace error is
    that of evolving the whole register, bit for bit."""
    rng = np.random.default_rng(17)
    apply = one_sparse.apply_product_formula
    for N in range(1, 9):
        bits = [int(b) for b in rng.integers(0, 2, N)]
        for quantize in (None, 1):
            want = run_parity(ParityInstance(bits), 0.2, quantize)
            sizes = []

            def spy(packed, plan, t, r, psi):
                sizes.append((packed.dim, psi.size))
                return apply(packed, plan, t, r, psi)

            with monkeypatch.context() as m:
                m.setattr(one_sparse, "apply_product_formula", spy)
                got = run_parity(ParityInstance(bits), 0.2, quantize)
            assert sizes == [(2 * (N + 1), 2 * (N + 1))]
            assert ((got.r, got.n_exp, got.h_queries, got.trace_error)
                    == (want.r, want.n_exp, want.h_queries, want.trace_error))
            inst = ParityInstance(bits)
            tables = [extract_table(p) for p in split_even_odd(inst)]
            if quantize is not None:
                tables = [quantize_table(t, quantize, N / 2.0)
                          for t in tables]
            # the odd piece of a 1-bit ladder is empty and is not run
            tables = [t for t in tables if t.entry_count]
            psi = apply(pack_tables(tables),
                        suzuki.build_plan(got.k, len(tables)), np.pi, got.r,
                        initial_state(N))
            assert numerics.pure_state_distance(
                psi, exact_target_state(inst)) == got.trace_error


def test_run_parity_quantized_pipeline():
    N = 8
    bits = [1, 1, 0, 1, 0, 0, 1, 1]
    eps = 0.1
    nbits = precision_bits(np.pi * N / 2, 2, 1, eps)
    res = run_parity(ParityInstance(bits), eps, quantize_bits=nbits)
    assert res.quantize_bits == nbits
    # "auto" is that count, from run_parity's own tau
    assert run_parity(ParityInstance(bits), eps, quantize_bits="auto") == res
    assert res.correct
    assert res.trace_error <= eps
    # query budget is untouched by table-level rounding
    assert res.bit_queries == 4 * N


def test_run_parity_rejects_bad_eps():
    with pytest.raises(PlanError, match="positive"):
        run_parity(ParityInstance([1, 0]), 0.0)


def test_extracted_piece_tables_match_dense_split():
    inst = ParityInstance([0, 1, 1, 1])
    even, odd = split_even_odd(inst)
    te, to = extract_table(even), extract_table(odd)
    inst2 = ParityInstance([0, 1, 1, 1])
    e2, o2 = split_even_odd(inst2)
    assert np.array_equal(table_to_dense(te), oracle.to_dense(e2))
    assert np.array_equal(table_to_dense(to), oracle.to_dense(o2))
