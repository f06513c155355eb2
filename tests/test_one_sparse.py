"""1-sparse pieces: table extraction, exact evolution, precision handling."""

import itertools
import tracemalloc

import numpy as np
import pytest

from hamsim import (_kernels, coloring, numerics, one_sparse, oracle, parity,
                    suzuki)
from hamsim.config import OracleError, PlanError
from hamsim.one_sparse import (OneSparseTable, apply_product_formula,
                               evolve_table, extract_table,
                               nested_commutator_norms, pack_tables,
                               precision_bits, quantize_table,
                               random_one_sparse_table, table_to_dense)
from hamsim.oracle import EntryList, from_entry_list

# frozen spot values (independent 40-digit arithmetic)
PAIR_SPOT_COS = 0.6599831458849821703954
PAIR_SPOT_OFF = 0.6010243241122341621697 - 0.4507682430841756216272j
DIAG_SPOT = -0.2995335061895741217554 + 0.9540857816096938153194j


class _Piece:
    """Raw column map for exercising extract_table error paths."""

    def __init__(self, dim, mapping):
        self.dim = dim
        self._map = mapping

    def column(self, x):
        return self._map.get(x, (x, 0j))


def one_sparse_oracle():
    # dim 8: diagonal at 1, pairs (2, 5) and (0, 7)
    return from_entry_list(EntryList(3, 1, (
        (1, 1, 0.5 + 0j),
        (2, 5, 0.3 + 0.4j),
        (0, 7, -1.0 + 0j),
    )))


def test_classify_kinds():
    # extract_table classifies each column: empty, diagonal or paired
    for mapping, want in (
            ({}, [[], [], [], [], []]),
            ({2: (2, -0.25 + 0j)}, [[2], [-0.25], [], [], []]),
            ({1: (3, 0.5 - 2j), 3: (1, 0.5 + 2j)},
             [[], [], [1], [3], [0.5 - 2j]])):
        tb = extract_table(_Piece(4, mapping))
        got = (tb.diag_idx, tb.diag_h, tb.pair_lo, tb.pair_hi, tb.pair_amp)
        assert [list(a) for a in got] == want


def test_classify_rejects_complex_diagonal():
    with pytest.raises(OracleError, match="not real"):
        extract_table(_Piece(2, {0: (0, 1j)}))


def test_extract_table_contents_and_probe_count():
    orc = one_sparse_oracle()
    table = extract_table(orc)
    assert orc.counter.count == orc.dim  # exactly one probe per column
    assert list(table.diag_idx) == [1]
    assert list(table.diag_h) == [0.5]
    assert list(table.pair_lo) == [0, 2]
    assert list(table.pair_hi) == [7, 5]
    assert list(table.pair_amp) == [-1.0 + 0j, 0.3 + 0.4j]
    assert table.entry_count == 3


def test_extract_table_rejects_inconsistent_pieces():
    with pytest.raises(OracleError, match="one-way"):
        extract_table(_Piece(4, {2: (1, 1.0 + 0j)}))
    with pytest.raises(OracleError, match="does not claim"):
        extract_table(_Piece(4, {0: (3, 1.0 + 0j), 3: (2, 1.0 + 0j)}))
    with pytest.raises(OracleError, match="non-Hermitian"):
        extract_table(_Piece(4, {0: (3, 1.0 + 0j), 3: (0, 0.5 + 0j)}))
    with pytest.raises(OracleError, match="out of range"):
        extract_table(_Piece(4, {0: (9, 1.0 + 0j)}))


def test_table_validation():
    with pytest.raises(OracleError, match="not 1-sparse"):
        OneSparseTable(4, [0], [1.0], [0], [1], [1.0 + 0j])
    with pytest.raises(OracleError, match="lo < hi"):
        OneSparseTable(4, [], [], [2], [1], [1.0 + 0j])
    with pytest.raises(OracleError, match="out of range"):
        OneSparseTable(4, [5], [1.0], [], [], [])
    with pytest.raises(OracleError, match="zero or non-finite"):
        OneSparseTable(4, [], [], [0], [1], [0j])


def test_random_table_is_deterministic_and_valid():
    t1 = random_one_sparse_table(37, seed=5)
    t2 = random_one_sparse_table(37, seed=5)
    assert np.array_equal(t1.diag_idx, t2.diag_idx)
    assert np.array_equal(t1.pair_lo, t2.pair_lo)
    assert np.array_equal(t1.pair_amp, t2.pair_amp)
    H = table_to_dense(t1)
    assert np.array_equal(H, H.conj().T)
    assert ((H != 0).sum(axis=0) <= 1).all()


def _random_table_reference(dim, seed, diag_prob, empty_prob):
    """The generator's first loop, kept as the reference: it marks used
    elements and scans ahead for the first unused partner."""
    rng = np.random.default_rng(seed)
    order = list(rng.permutation(dim))
    used = np.zeros(dim, dtype=bool)
    diag_idx, diag_h, pair_lo, pair_hi, pair_amp = [], [], [], [], []

    def nonzero(v):
        return v if v != 0 else 1.0

    i = 0
    while i < len(order):
        x = int(order[i])
        i += 1
        if used[x]:
            continue
        used[x] = True
        roll = rng.random()
        if roll < empty_prob:
            continue
        partner = None
        if roll >= empty_prob + diag_prob:
            for j in range(i, len(order)):
                if not used[order[j]]:
                    partner = int(order[j])
                    break
        if partner is None:
            diag_idx.append(x)
            diag_h.append(nonzero(float(rng.normal())))
            continue
        used[partner] = True
        a = complex(nonzero(float(rng.normal())), float(rng.normal()))
        pair_lo.append(min(x, partner))
        pair_hi.append(max(x, partner))
        pair_amp.append(a if x < partner else a.conjugate())
    return OneSparseTable(dim, diag_idx, diag_h, pair_lo, pair_hi, pair_amp)


def test_random_table_matches_the_scanning_loop_bit_for_bit():
    fields = ("diag_idx", "diag_h", "pair_lo", "pair_hi", "pair_amp")
    for diag_prob, empty_prob in ((0.25, 0.15), (1.0, 0.0), (0.0, 0.0),
                                  (0.0, 1.0), (0.4, 0.3)):
        for dim in (*range(1, 40), 257, 1000):
            for seed in range(6):
                got = random_one_sparse_table(dim, seed=seed,
                                              diag_prob=diag_prob,
                                              empty_prob=empty_prob)
                want = _random_table_reference(dim, seed, diag_prob,
                                               empty_prob)
                for name in fields:
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype, (name, dim, seed)
                    assert a.tobytes() == b.tobytes(), (name, dim, seed)


def test_random_table_refuses_negative_seed():
    with pytest.raises(OracleError, match="nonnegative"):
        random_one_sparse_table(8, seed=-1)


def test_random_table_norm_target_is_exact():
    table = random_one_sparse_table(24, seed=11, norm_target=2.5)
    assert numerics.spectral_norm(table_to_dense(table)) == pytest.approx(
        2.5, abs=1e-12)
    # refused before the draw, so an empty piece is refused too
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        for empty_prob in (0.15, 1.0):
            with pytest.raises(OracleError, match="finite and positive"):
                random_one_sparse_table(24, seed=11, empty_prob=empty_prob,
                                        norm_target=bad)


def test_evolve_zero_time_is_identity():
    orc = one_sparse_oracle()
    psi = numerics.random_state(8, np.random.default_rng(0))
    out = evolve_table(extract_table(orc), 0.0, psi)
    assert np.allclose(out, psi, atol=1e-15)


def test_quarter_period_swap():
    # H = [[0, 1/2], [1/2, 0]] for time pi: maps e_0 to -i e_1
    table = OneSparseTable(2, [], [], [0], [1], [0.5 + 0j])
    out = evolve_table(table, np.pi, np.array([1.0, 0.0], dtype=complex))
    assert abs(out[0]) < 1e-12
    assert abs(out[1] - (-1j)) < 1e-12


def test_diagonal_phase_spot_value():
    table = OneSparseTable(3, [1], [-0.75], [], [], [])
    psi = np.array([0.0, 1.0, 0.0], dtype=complex)
    out = evolve_table(table, 2.5, psi)
    assert out[1] == pytest.approx(DIAG_SPOT, abs=1e-15)
    assert out[0] == 0 and out[2] == 0


def test_pair_rotation_spot_values():
    table = OneSparseTable(2, [], [], [0], [1], [0.3 - 0.4j])
    out = evolve_table(table, 1.7, np.array([1.0, 0.0], dtype=complex))
    assert out[0] == pytest.approx(PAIR_SPOT_COS, abs=1e-15)
    assert out[1] == pytest.approx(PAIR_SPOT_OFF, abs=1e-15)


def test_evolution_matches_dense_exponential():
    rng = np.random.default_rng(42)
    for trial in range(100):
        dim = int(rng.integers(2, 65))
        table = random_one_sparse_table(dim, seed=1000 + trial)
        t = float(rng.uniform(-3.0, 3.0))
        psi = numerics.random_state(dim, rng)
        got = evolve_table(table, t, psi)
        want = numerics.hermitian_expm(table_to_dense(table), t) @ psi
        assert np.linalg.norm(got - want) < 1e-12
        assert abs(np.linalg.norm(got) - 1.0) < 1e-12


def test_evolution_group_property():
    rng = np.random.default_rng(7)
    table = random_one_sparse_table(33, seed=3)
    psi = numerics.random_state(33, rng)
    t1, t2 = 0.8, -1.9
    once = evolve_table(table, t1 + t2, psi)
    twice = evolve_table(table, t2, evolve_table(table, t1, psi))
    assert np.linalg.norm(once - twice) < 1e-12


def test_evolve_counts_one_probe_per_column():
    orc = one_sparse_oracle()
    psi = numerics.random_state(8, np.random.default_rng(1))
    evolve_table(extract_table(orc), 1.3, psi)
    assert orc.counter.count == orc.dim


def test_extract_table_from_decomposition_pieces():
    orc = oracle.random_sparse(3, 2, seed=9)
    dense = oracle.to_dense(orc)
    total = np.zeros_like(dense)
    for piece in coloring.decompose(orc):
        table = extract_table(piece)
        assert piece.counter.count == orc.dim
        total += table_to_dense(table)
    assert np.array_equal(total, dense)


def test_pack_tables_layout():
    t_a = OneSparseTable(4, [0], [1.0], [1, 2][:1], [3], [2.0 + 0j])
    t_b = OneSparseTable(4, [], [], [0, 1], [2, 3], [1j, -1.0 + 0j])
    packed = pack_tables([t_a, t_b])
    assert packed.count == 2 and packed.dim == 4
    assert list(packed.diag_ptr) == [0, 1, 1]
    assert list(packed.pair_ptr) == [0, 1, 3]
    assert list(packed.pair_absa) == [2.0, 1.0, 1.0]
    assert list(packed.pair_u) == [1.0 + 0j, 1j, -1.0 + 0j]
    with pytest.raises(PlanError, match="nothing"):
        pack_tables([])
    with pytest.raises(PlanError, match="dimensions"):
        pack_tables([t_a, OneSparseTable(8, [], [], [], [], [])])


def test_product_formula_matches_dense_plan_unitary():
    rng = np.random.default_rng(12)
    # (tables, k, t, r): a fixed case, 20 random plans, then edge shapes
    cases = [([random_one_sparse_table(16, seed=100 + i) for i in range(3)],
              2, 0.9, 7)]
    grid = np.random.default_rng(31)
    for trial in range(20):
        dim = int(grid.integers(2, 97))
        m = int(grid.integers(1, 5))
        k = int(grid.integers(1, 4))
        r = int(grid.integers(1, 9))
        tables = [random_one_sparse_table(dim, seed=7000 + 10 * trial + i)
                  for i in range(m)]
        cases.append((tables, k, float(grid.uniform(-2.0, 2.0)), r))
    # an empty piece, a lone diagonal, a lone pair
    cases.append(([OneSparseTable(6, [], [], [], [], []),
                   OneSparseTable(6, [3], [1.25], [], [], []),
                   OneSparseTable(6, [], [], [0], [5], [0.5 - 0.5j])],
                  2, 1.1, 3))
    for tables, k, t, r in cases:
        psi = numerics.random_state(tables[0].dim, rng)
        plan = suzuki.build_plan(k, len(tables))
        got = apply_product_formula(pack_tables(tables), plan, t, r, psi)
        U = suzuki.plan_unitary([table_to_dense(tb) for tb in tables], t, k, r)
        assert np.linalg.norm(got - U @ psi) < 1e-12


def test_product_formula_argument_checks():
    tables = [random_one_sparse_table(8, seed=0) for _ in range(2)]
    packed = pack_tables(tables)
    plan = suzuki.build_plan(1, 2)
    psi = numerics.random_state(8, np.random.default_rng(2))
    with pytest.raises(PlanError, match="repetition"):
        apply_product_formula(packed, plan, 1.0, 0, psi)
    with pytest.raises(PlanError, match="covers"):
        apply_product_formula(packed, suzuki.build_plan(1, 3), 1.0, 1, psi)
    with pytest.raises(PlanError, match="dimension"):
        apply_product_formula(packed, plan, 1.0, 1, psi[:4] / np.linalg.norm(psi[:4]))
    for bad_t in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(PlanError, match="finite"):
            apply_product_formula(packed, plan, bad_t, 1, psi)
    with pytest.raises(PlanError, match="integer"):
        apply_product_formula(packed, plan, 1.0, 2.5, psi)
    assert np.array_equal(apply_product_formula(packed, plan, 1.0, np.int64(3), psi),
                          apply_product_formula(packed, plan, 1.0, 3, psi))


def test_kernel_shares_coefficients_only_between_equal_steps(monkeypatch):
    dim = 8
    # h = 2^40 makes h * s exact, so one ulp of s turns the phase by
    # 2^40 ulp(0.3) = 6.1e-5: steps one ulp apart that shared their
    # coefficients would miss the reference by that much
    tables = [OneSparseTable(dim, [], [], [], [], []),
              OneSparseTable(dim, [1, 4, 6], [2.0 ** 40, -0.7, 1.3],
                             [], [], []),
              OneSparseTable(dim, [], [], [0, 2], [5, 7],
                             [0.5 - 0.5j, -1.2j]),
              random_one_sparse_table(dim, seed=5)]
    s_up = float(np.nextafter(0.3, 1.0))
    steps = [(3, 0.25), (2, 0.4), (1, 0.3), (0, 0.5), (3, 0.25),
             (1, s_up), (2, -0.4), (3, -0.1), (1, 0.3)]
    reps = 3
    psi0 = numerics.random_state(dim, np.random.default_rng(8))
    want = psi0.copy()
    for _ in range(reps):
        for term, s in steps:
            want = numerics.hermitian_expm(table_to_dense(tables[term]),
                                           s) @ want
    packed = pack_tables(tables)
    for _ in kernel_forms(monkeypatch):
        got = run_kernel(packed, steps, reps, psi0)
        assert np.array_equal(got, step_by_step(packed, steps, reps, psi0))
        assert np.linalg.norm(got - want) < 1e-12


def step_by_step(packed, steps, reps, psi):
    """Independent reference: each (piece, s) step applied on its own, in
    plan order, with the kernel's floating-point operations."""
    psi = psi.astype(np.complex128, copy=True)
    for _ in range(reps):
        for t, s in steps:
            d0, d1 = packed.diag_ptr[t], packed.diag_ptr[t + 1]
            p0, p1 = packed.pair_ptr[t], packed.pair_ptr[t + 1]
            idx = packed.diag_idx[d0:d1]
            psi[idx] *= np.exp(-1j * s * packed.diag_h[d0:d1])
            lo, hi = packed.pair_lo[p0:p1], packed.pair_hi[p0:p1]
            th = packed.pair_absa[p0:p1] * s
            c = np.cos(th).astype(np.complex128)
            b = -1j * packed.pair_u[p0:p1] * np.sin(th)
            x, y = psi[lo], psi[hi]
            psi[lo] = c * x + b * y
            psi[hi] = c * y - b.conj() * x
    return psi


def run_kernel(packed, steps, reps, psi):
    got = psi.astype(np.complex128, copy=True)
    _kernels.apply_plan(got, packed.diag_ptr, packed.diag_idx, packed.diag_h,
                        packed.pair_ptr, packed.pair_lo, packed.pair_hi,
                        packed.pair_absa, packed.pair_u,
                        np.array([t for t, _ in steps], dtype=np.int64),
                        np.array([s for _, s in steps], dtype=np.float64),
                        reps)
    return got


def kernel_forms(monkeypatch):
    """Set the kernel's cache budget to 0, then past any plan, so that a
    loop over this runs its body once in the layout form and once in the
    full-vector form (a plan with no pairs takes the latter at both)."""
    for budget in (0, 1 << 62):
        monkeypatch.setattr(_kernels, "_FULL_FORM_BYTES", budget)
        yield budget


def plan_steps(plan, t, r):
    return [(st.term - 1, st.fraction * t / r) for st in plan.steps]


def check_against_references(pieces, steps, reps, seed, monkeypatch):
    packed = pack_tables(pieces)
    psi0 = numerics.random_state(packed.dim, np.random.default_rng(seed))
    want = psi0.copy()
    for _ in range(reps):
        for term, s in steps:
            want = numerics.hermitian_expm(table_to_dense(pieces[term]),
                                           s) @ want
    for _ in kernel_forms(monkeypatch):
        got = run_kernel(packed, steps, reps, psi0)
        assert np.array_equal(got, step_by_step(packed, steps, reps, psi0))
        assert np.linalg.norm(got - want) < 1e-12


def test_kernel_layers_disjoint_steps_exactly(monkeypatch):
    """Steps on disjoint and overlapping pieces, interleaved, run in plan
    order: the kernel equals the step-by-step reference bit for bit."""
    dim = 10
    tables = [OneSparseTable(dim, [2, 3], [0.8, -0.3], [0], [1], [0.6 + 0.3j]),
              # disjoint from piece 0
              OneSparseTable(dim, [], [], [4], [5], [-0.4j]),
              # overlaps piece 0 only, at index 1
              OneSparseTable(dim, [], [], [1], [6], [1.3 - 0.2j]),
              # a lone diagonal entry
              OneSparseTable(dim, [7], [0.45], [], [], []),
              OneSparseTable(dim, [], [], [], [], [])]
    steps = [(0, 0.3), (2, 0.7), (0, -0.4), (1, 0.5), (3, 1.1), (4, 0.2),
             (2, -0.25), (1, 0.9), (0, 0.6)]
    check_against_references(tables, steps, 3, 4, monkeypatch)


def test_kernel_layer_schedule(monkeypatch):
    """A k=1 plan over pieces that are all disjoint, all lone diagonals, or
    all touch index 0: each runs as the step-by-step reference does."""
    m, dim = 5, 20
    disjoint = [OneSparseTable(dim, [4 * i, 4 * i + 1], [0.5 + i, -0.2],
                               [4 * i + 2], [4 * i + 3], [0.7 - 0.1j * i])
                for i in range(m)]
    lone = [OneSparseTable(dim, [i], [0.5 + i], [], [], []) for i in range(m)]
    # every piece touches index 0, through a diagonal or a pair
    shared = [OneSparseTable(dim, [0], [1.5], [], [], [])] + [
        OneSparseTable(dim, [], [], [0], [i], [0.3 + 0.2j * i])
        for i in range(1, m)]
    steps = plan_steps(suzuki.build_plan(1, m), 0.9, 1)
    for pieces in (disjoint, lone, shared):
        check_against_references(pieces, steps, 2, 9, monkeypatch)


def test_kernel_decomposition_pieces_exactly(monkeypatch):
    for seed in (1, 2, 3):
        pieces = coloring.decompose(oracle.random_sparse(6, 3, seed=seed))
        packed = pack_tables([extract_table(piece) for piece in pieces])
        psi0 = numerics.random_state(packed.dim, np.random.default_rng(seed))
        for k, t, r in ((1, 0.8, 5), (2, -1.3, 2)):
            plan = suzuki.build_plan(k, packed.count)
            want = step_by_step(packed, plan_steps(plan, t, r), r, psi0)
            for _ in kernel_forms(monkeypatch):
                got = apply_product_formula(packed, plan, t, r, psi0)
                assert np.array_equal(got, want)


def test_kernel_empty_pieces_and_dimension_one(monkeypatch):
    """A plan whose pieces are all empty returns the state unchanged; at
    dimension 1 only the diagonal phase acts."""
    dim = 6
    empty = pack_tables([OneSparseTable(dim, [], [], [], [], [])
                         for _ in range(3)])
    psi0 = numerics.random_state(dim, np.random.default_rng(6))
    steps = [(0, 0.4), (2, -1.1), (1, 0.4)]
    for _ in kernel_forms(monkeypatch):
        assert np.array_equal(run_kernel(empty, steps, 4, psi0), psi0)
    one = pack_tables([OneSparseTable(1, [0], [0.7], [], [], []),
                       OneSparseTable(1, [], [], [], [], [])])
    psi1 = np.array([0.6 - 0.8j])
    steps = [(0, 0.3), (1, 0.5), (0, -1.2)]
    want = step_by_step(one, steps, 4, psi1)
    assert abs(want[0] - psi1[0] * np.exp(-1j * 0.7 * (0.3 - 1.2) * 4)) < 1e-14
    for _ in kernel_forms(monkeypatch):
        assert np.array_equal(run_kernel(one, steps, 4, psi1), want)


def test_kernel_form_follows_distinct_paired_steps_times_dim(monkeypatch):
    """The full-vector form runs when 32 B x dim per distinct step on a
    piece with pairs fits the budget, and the layout form otherwise;
    diagonal-only and empty pieces take none of it."""
    dim = 16
    calls = []
    for name in ("_full_vector", "_layouts"):
        build = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name, lambda *args, _n=name, _b=build: (
            calls.append(_n), _b(*args))[1])
    packed = pack_tables([random_one_sparse_table(dim, seed=3),
                          OneSparseTable(dim, [2], [0.5], [], [], []),
                          OneSparseTable(dim, [], [], [], [], [])])
    assert packed.pair_ptr[1] > 0
    # three distinct steps on the paired piece 0
    steps = [(0, 0.2), (1, 0.3), (0, 0.4), (2, 0.1), (0, 0.2), (0, -0.5)]
    psi0 = numerics.random_state(dim, np.random.default_rng(1))
    want = step_by_step(packed, steps, 2, psi0)
    for budget, form in ((3 * dim * 32, "_full_vector"),
                         (3 * dim * 32 - 1, "_layouts")):
        monkeypatch.setattr(_kernels, "_FULL_FORM_BYTES", budget)
        calls.clear()
        assert np.array_equal(run_kernel(packed, steps, 2, psi0), want)
        assert calls == [form]


def test_kernel_forms_on_a_seeded_grid(monkeypatch):
    """Random pieces with random empty and diagonal shares, at dimensions 1
    to 89, 1 to 5 pieces, k 1 or 2 and 1 to 5 reps: both forms equal the
    step-by-step reference bit for bit."""
    rng = np.random.default_rng(14)
    for _ in range(150):
        dim, m = int(rng.integers(1, 90)), int(rng.integers(1, 6))
        k, reps = int(rng.integers(1, 3)), int(rng.integers(1, 6))
        tables = []
        for _ in range(m):
            empty = float(rng.random())
            tables.append(random_one_sparse_table(
                dim, seed=int(rng.integers(1 << 30)), empty_prob=empty,
                diag_prob=float(rng.random()) * (1 - empty)))
        packed = pack_tables(tables)
        steps = plan_steps(suzuki.build_plan(k, m), float(rng.uniform(-3, 3)),
                           reps)
        psi0 = numerics.random_state(dim, rng)
        want = step_by_step(packed, steps, reps, psi0)
        for _ in kernel_forms(monkeypatch):
            assert np.array_equal(run_kernel(packed, steps, reps, psi0), want)


def test_kernel_piece_changes(monkeypatch):
    """Plans the layout form handles apart: a piece with exactly one pair,
    an odd number of piece changes per rep (so the state ends alternate
    reps in alternate buffers), consecutive steps on one piece, and a
    diagonal-only piece between paired pieces."""
    dim = 9
    one_pair = OneSparseTable(dim, [0, 4], [0.3, -1.1], [2], [7], [0.4 - 0.9j])
    diagonal = OneSparseTable(dim, [1, 3, 8], [0.6, -0.2, 1.7], [], [], [])
    pieces = [one_pair, random_one_sparse_table(dim, seed=11),
              random_one_sparse_table(dim, seed=12), diagonal]
    assert one_pair.pair_lo.size == 1
    assert pieces[1].pair_lo.size and pieces[2].pair_lo.size
    # three changes per rep, counting the one from piece 2 back to piece 0
    odd = [(0, 0.3), (1, -0.7), (2, 0.45)]
    consecutive = [(1, 0.2), (1, 0.2), (1, -0.35), (0, 0.5), (0, 0.5),
                   (2, 0.1), (1, 0.2)]
    between = [(1, 0.6), (3, -0.4), (2, 0.25), (3, 0.9), (0, -0.15)]
    for steps in (odd, consecutive, between):
        for reps in (1, 2, 3):
            check_against_references(pieces, steps, reps, 5, monkeypatch)


def test_kernel_leaves_untouched_states_alone(monkeypatch):
    """Pieces that leave basis states alone: the parity ladder's two pieces
    for N = 1 to 8 (2(N+1) states in the next power of two, which N = 1, 3
    and 7 fill), one pair at dimension 1,024, all-empty pieces and
    dimension 1.  Both forms equal the step-by-step reference bit for bit
    and keep every untouched entry's bytes."""
    cases = []
    for N in range(1, 9):
        inst = parity.ParityInstance([(3 * j + N) % 2 for j in range(N)])
        pieces = [extract_table(p) for p in parity.split_even_odd(inst)]
        cases.append((pieces, plan_steps(suzuki.build_plan(1, 2), 1.7, 2)))
    cases.append(([OneSparseTable(1024, [], [], [3], [700], [0.4 - 0.2j]),
                   OneSparseTable(1024, [], [], [], [], [])],
                  [(0, 0.3), (1, 0.2), (0, -0.9)]))
    cases.append(([OneSparseTable(6, [], [], [], [], [])] * 2,
                  [(0, 0.4), (1, -1.1)]))
    cases.append(([OneSparseTable(1, [], [], [], [], [])], [(0, 0.5)]))
    cases.append(([OneSparseTable(1, [0], [0.7], [], [], [])], [(0, 0.5)]))
    rng = np.random.default_rng(16)
    for pieces, steps in cases:
        packed = pack_tables(pieces)
        touched = np.zeros(packed.dim, dtype=bool)
        for table in pieces:
            for idx in (table.diag_idx, table.pair_lo, table.pair_hi):
                touched[idx] = True
        psi0 = numerics.random_state(packed.dim, rng)
        want = step_by_step(packed, steps, 3, psi0)
        for _ in kernel_forms(monkeypatch):
            got = run_kernel(packed, steps, 3, psi0)
            assert np.array_equal(got, want)
            assert got[~touched].tobytes() == psi0[~touched].tobytes()


def test_kernel_layout_form_memory(monkeypatch):
    """At dimension 2^14 (6 random pieces, k=2, r=2) the layout form's
    allocation peak stays below the full-vector cache of that plan and
    within 1.5x of the 3.43 MiB that the gather-scatter pair form it
    replaced peaked at."""
    monkeypatch.setattr(_kernels, "_FULL_FORM_BYTES", 0)
    dim, reps = 1 << 14, 2
    packed = pack_tables([random_one_sparse_table(dim, seed=i)
                          for i in range(6)])
    steps = plan_steps(suzuki.build_plan(2, 6), 1.0, reps)
    paired = {(t, s) for t, s in steps
              if packed.pair_ptr[t + 1] > packed.pair_ptr[t]}
    psi = numerics.random_state(dim, np.random.default_rng(2))
    step_term = np.array([t for t, _ in steps], dtype=np.int64)
    step_s = np.array([s for _, s in steps], dtype=np.float64)
    tracemalloc.start()
    try:
        _kernels.apply_plan(psi, packed.diag_ptr, packed.diag_idx,
                            packed.diag_h, packed.pair_ptr, packed.pair_lo,
                            packed.pair_hi, packed.pair_absa, packed.pair_u,
                            step_term, step_s, reps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(paired) * dim * 32
    assert peak < 1.5 * 3.43 * 2 ** 20


def _commutator(a, b):
    return a @ b - b @ a


def _decomposition_tables(n, d, seed):
    orc = oracle.random_sparse(n, d, seed=seed, norm_target=1.0)
    tables = [extract_table(p) for p in coloring.decompose(orc)]
    return [tb for tb in tables if tb.entry_count]


def _random_tables(dim, m, seed):
    return [random_one_sparse_table(dim, seed=seed + i, norm_target=1.0)
            for i in range(m)]


def test_nested_commutator_row_sums_bound_dense_norms():
    """Each sparse row sum equals the dense nested commutator's largest
    absolute row sum, which is at least its spectral norm."""
    cases = [_random_tables(dim, m, 300 + 10 * m)
             for dim, m in ((2, 2), (9, 3), (16, 6), (33, 4))]
    cases += [_decomposition_tables(n, d, seed)
              for n, d, seed in ((4, 2, 1), (5, 3, 2), (6, 3, 3))]
    for tables in cases:
        norms = nested_commutator_norms(tables)
        assert norms.shape == (len(tables), 2)
        hams = [table_to_dense(tb) for tb in tables]
        for g, H in enumerate(hams):
            S = sum(hams[g + 1:], np.zeros_like(H))
            for got, C in zip(norms[g],
                              (_commutator(S, _commutator(S, H)),
                               _commutator(H, _commutator(H, S)))):
                row_sum = np.abs(C).sum(axis=1).max()
                assert got == pytest.approx(row_sum, rel=1e-12, abs=1e-13)
                assert got >= numerics.spectral_norm(C) - 1e-12
        assert not norms[-1].any()  # nothing comes after the last piece


def test_commutator_bound_is_sound_on_pieces():
    """|t|^3 alpha / r^2 from the row sums bounds the operator-norm error
    of the k = 1 plan on random pieces and on coloring pieces."""
    cases = [_random_tables(12, m, 500 + 10 * m) for m in range(1, 7)]
    cases += [_decomposition_tables(n, 3, n) for n in (4, 5, 6)]
    points = informative = 0
    for tables in cases:
        hams = [table_to_dense(tb) for tb in tables]
        alpha = suzuki.commutator_alpha(nested_commutator_norms(tables))
        for t in (0.1, 0.5, -1.0, 2.0):
            exact = numerics.hermitian_expm(sum(hams), t)
            for r in (1, 2, 5, 16):
                measured = numerics.unitary_diff_norm(
                    exact, suzuki.plan_unitary(hams, t, 1, r))
                bound = suzuki.commutator_error_bound(alpha, t, r)
                assert measured <= bound + 1e-12, (len(tables), t, r)
                points += 1
                informative += bound < 2.0  # unitaries differ by at most 2
    assert points == 144 and informative >= 100, informative


def test_commuting_pieces_have_zero_alpha():
    dim = 10
    diagonal = [random_one_sparse_table(dim, seed=s, diag_prob=1.0,
                                        empty_prob=0.2) for s in range(4)]
    disjoint = [OneSparseTable(dim, [5 * i], [0.5 + i], [5 * i + 1],
                               [5 * i + 4], [0.3 - 0.7j]) for i in range(2)]
    for tables in ([random_one_sparse_table(dim, seed=1)], diagonal,
                   disjoint):
        norms = nested_commutator_norms(tables)
        assert np.array_equal(norms, np.zeros((len(tables), 2)))
        alpha = suzuki.commutator_alpha(norms)
        assert alpha == 0.0
        assert suzuki.choose_r_commutator(alpha, 3.0, 1e-12) == 1
        psi = numerics.random_state(dim, np.random.default_rng(4))
        got = apply_product_formula(pack_tables(tables),
                                    suzuki.build_plan(1, len(tables)),
                                    3.0, 1, psi)
        H = sum(table_to_dense(tb) for tb in tables)
        assert np.linalg.norm(got - numerics.hermitian_expm(H, 3.0) @ psi) < 1e-12
    assert nested_commutator_norms([]).shape == (0, 2)


# The per-suffix computation the norms once ran: it re-sorts and re-pads
# the suffix S for each piece, and sums duplicates through one sort of all
# of a product's entries.  It is the independent reference the norms must
# match to rel 1e-12, abs 1e-13.

def _combine(rows, cols, vals, dim):
    """COO entries with duplicate (row, col) summed and zeros dropped,
    sorted by row, then column."""
    key = rows * dim + cols
    order = np.argsort(key, kind="stable")
    key, vals = key[order], vals[order]
    if key.size:
        first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        key, vals = key[first], np.add.reduceat(vals, first)
    keep = vals != 0
    key = key[keep]
    return key // dim, key % dim, vals[keep]


def _padded_rows(rows, cols, vals, dim):
    """Row-sorted COO entries as (dim, w) column and value arrays, each row
    padded with zero values in column 0 out to the longest row's length."""
    counts = np.bincount(rows, minlength=dim)
    width = max(int(counts.max(initial=0)), 1)
    slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    pad_cols = np.zeros((dim, width), dtype=np.int64)
    pad_vals = np.zeros((dim, width), dtype=np.complex128)
    pad_cols[rows, slot] = cols
    pad_vals[rows, slot] = vals
    return pad_cols, pad_vals


def _sparse_commutator(a_cols, a_vals, rows, cols, vals, dim):
    """[A, M] as combined COO entries, for Hermitian A in padded rows."""
    width = a_cols.shape[1]
    left_vals = a_vals[rows].conj() * vals[:, None]
    right_vals = -vals[:, None] * a_vals[cols]
    return _combine(
        np.concatenate([a_cols[rows].ravel(), np.repeat(rows, width)]),
        np.concatenate([np.repeat(cols, width), a_cols[cols].ravel()]),
        np.concatenate([left_vals.ravel(), right_vals.ravel()]), dim)


def per_suffix_norms(tables):
    norms = np.zeros((len(tables), 2))
    if not tables:
        return norms
    dim = tables[0].dim
    coo = [t.entries() for t in tables]
    suffix = (np.zeros(0, np.int64), np.zeros(0, np.int64),
              np.zeros(0, np.complex128))
    for g in range(len(tables) - 2, -1, -1):
        suffix = _combine(*(np.concatenate(parts)
                            for parts in zip(suffix, coo[g + 1])), dim)
        s_cols, s_vals = _padded_rows(*suffix, dim)
        piece_cols, piece_vals = _padded_rows(*_combine(*coo[g], dim), dim)
        inner = _sparse_commutator(s_cols, s_vals, *coo[g], dim)
        outer_s = _sparse_commutator(s_cols, s_vals, *inner, dim)
        outer_h = _sparse_commutator(piece_cols, piece_vals, *inner, dim)
        norms[g] = (numerics.max_row_sum(outer_s[0], outer_s[2]),
                    numerics.max_row_sum(outer_h[0], outer_h[2]))
    return norms


def test_nested_commutator_norms_match_the_per_suffix_reference():
    """On coloring pieces in label and largest-first order, on overlapping
    random pieces (where several pieces hold one entry and the suffix sums
    them last piece first), on empty pieces, a zero diagonal, dimension 1
    and suffixes where a piece cancels another, and on commuting
    diagonals."""
    cases = []
    for n, d, seed in itertools.product(range(4, 10), (2, 3, 4), (1, 2, 3)):
        tables = [tb for tb in coloring.piece_tables(
            oracle.random_sparse(n, d, seed=seed)) if tb.entry_count]
        cases += [tables, sorted(tables, key=lambda tb: -tb.entry_count)]
    rng = np.random.default_rng(20)
    for case in range(100):
        dim, m = int(rng.integers(2, 34)), int(rng.integers(2, 7))
        cases.append([random_one_sparse_table(dim, seed=1000 * case + i,
                                              norm_target=1.0)
                      for i in range(m)])
    empty = OneSparseTable(5, [], [], [], [], [])
    cases += [
        [empty, empty], [empty, random_one_sparse_table(5, seed=1)],
        [random_one_sparse_table(5, seed=1), empty,
         random_one_sparse_table(5, seed=2)],
        [OneSparseTable(5, [0, 2], [0.0, 1.0], [3], [4], [1 - 1j]),
         random_one_sparse_table(5, seed=3)],
        [OneSparseTable(1, [0], [0.5], [], [], []),
         OneSparseTable(1, [0], [-0.25], [], [], [])],
    ]
    # a piece after its negation: every suffix holding both sums their
    # entries to 0 and so lacks them
    for case in range(20):
        tables = [random_one_sparse_table(7, seed=500 + 10 * case + i,
                                          diag_prob=0.2, empty_prob=0.0)
                  for i in range(6)]
        t = tables[3]
        cases.append(tables[:3] + [OneSparseTable(
            7, t.diag_idx, -t.diag_h, t.pair_lo, t.pair_hi, -t.pair_amp)]
            + tables[3:])
    for tables in cases:
        np.testing.assert_allclose(nested_commutator_norms(tables),
                                   per_suffix_norms(tables),
                                   rtol=1e-12, atol=1e-13)
    diagonal = [random_one_sparse_table(10, seed=s, diag_prob=1.0,
                                        empty_prob=0.2) for s in range(4)]
    for norms in (nested_commutator_norms(diagonal),
                  per_suffix_norms(diagonal)):
        assert np.array_equal(norms, np.zeros((4, 2)))


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_nested_commutator_norms_memory(monkeypatch):
    """At n = 11, d = 4, in plan order, with the work budget cut to 128
    KiB, the traced peak stays within what the budget and the pieces' own
    bytes allow, a bound below the per-suffix reference's own peak.

    The bound, term by term:
    - the padded copy of H: 48 bytes a slot (column 8, piece value 16, run
      value 16, piece and previous piece 4 + 4), dim x width slots;
    - set-up: at most ten arrays of one entry of H each, of at most 16
      bytes an entry, where the tables hold 16 bytes an entry: ten times
      the tables' bytes;
    - a block's inner commutators and row keys: C_g has at most 2 width
      entries per entry of H_g (one per side and slot of S_g), at 24
      bytes each, and its rows and the outer rows take at most 2 width
      keys of 8 bytes per entry: 4 width times the tables' bytes;
    - the block's row tables and one pass of terms: one budget each, and
      as much again for temporaries.
    """
    tables = sorted((tb for tb in coloring.piece_tables(
        oracle.random_sparse(11, 4, seed=1)) if tb.entry_count),
        key=lambda tb: -tb.entry_count)
    entry_bytes = sum(a.nbytes for tb in tables
                      for a in (tb.diag_idx, tb.diag_h, tb.pair_lo,
                                tb.pair_hi, tb.pair_amp))
    dim = tables[0].dim
    width = int(np.bincount(np.concatenate([tb.entries()[0] for tb in tables]),
                            minlength=dim).max())
    budget = 1 << 17
    monkeypatch.setattr(one_sparse, "_BLOCK_BYTES", budget)
    bound = 48 * dim * width + (10 + 4 * width) * entry_bytes + 4 * budget
    norms, peak = _traced_peak(nested_commutator_norms, tables)
    want, reference_peak = _traced_peak(per_suffix_norms, tables)
    np.testing.assert_allclose(norms, want, rtol=1e-12, atol=1e-13)
    assert peak < bound < reference_peak


@pytest.mark.parametrize("tau,d,k,eps,want", [
    (1, 2, 1, 0.01, 16),
    (1, 2, 1, 0.32, 11),
    (1, 2, 1, 0.005, 17),
    (2, 3, 2, 0.001, 24),
    (1, 1, 1, 1.0, 8),
    (10, 4, 3, 1e-6, 40),
])
def test_precision_bits_values(tau, d, k, eps, want):
    assert precision_bits(tau, d, k, eps) == want


def test_precision_bits_halving_eps_adds_one_bit():
    for eps in (0.01, 0.02, 0.3):
        assert precision_bits(3, 2, 2, eps / 2) == precision_bits(3, 2, 2, eps) + 1


def test_precision_bits_clamps_and_validation():
    assert precision_bits(1e-9, 1, 1, 1.0) == 1
    assert precision_bits(1e6, 16, 9, 1e-12) == 62
    assert precision_bits(0.0, 2, 1, 0.1) == 1
    with pytest.raises(PlanError):
        precision_bits(1, 0, 1, 0.1)
    with pytest.raises(PlanError):
        precision_bits(1, 2, 0, 0.1)
    with pytest.raises(PlanError):
        precision_bits(1, 2, 1, 0.0)
    with pytest.raises(PlanError):
        precision_bits(-1.0, 2, 1, 0.1)


def quantized_pieces(orc, bits, lam):
    """The oracle's coloring pieces as tables, each rounded by quantize_table."""
    return [quantize_table(extract_table(piece), bits, lam)
            for piece in coloring.decompose(orc)]


def pieces_to_dense(tables):
    return sum(table_to_dense(table) for table in tables)


def test_quantize_on_grid_oracle_is_unchanged():
    # entries are exact multiples of 2 / 2^4 = 0.125
    orc = from_entry_list(EntryList(2, 2, (
        (0, 1, 0.375 + 0.25j),
        (1, 2, -0.5 + 0j),
        (3, 3, 2.0 + 0j),
    )))
    q = quantized_pieces(orc, 4, 2.0)
    assert np.array_equal(pieces_to_dense(q), oracle.to_dense(orc))


def test_quantize_error_within_grid_bound():
    for seed, bits in [(1, 4), (2, 8), (3, 12), (4, 6)]:
        orc = oracle.random_sparse(3, 3, seed=seed)
        H = oracle.to_dense(orc)
        lam = numerics.spectral_norm(H)
        Hq = pieces_to_dense(quantized_pieces(orc, bits, lam))
        assert np.array_equal(Hq, Hq.conj().T)
        err = numerics.spectral_norm(H - Hq)
        assert err <= orc.d * lam / 2 ** bits + 1e-15


def test_quantize_drops_vanishing_entries():
    orc = from_entry_list(EntryList(2, 2, (
        (0, 1, 1.0 + 0j),
        (2, 3, 1e-4 + 0j),
    )))
    q = quantized_pieces(orc, 3, 1.0)
    Hq = pieces_to_dense(q)
    assert Hq[2, 3] == 0 and Hq[0, 1] == 1.0
    # the rounded-away pair leaves no entry at all behind, not a stored zero
    assert all(2 not in np.concatenate([t.diag_idx, t.pair_lo, t.pair_hi])
               for t in q)


def test_quantize_validation():
    table = extract_table(one_sparse_oracle())
    with pytest.raises(PlanError, match="1..62"):
        quantize_table(table, 0, 1.0)
    with pytest.raises(PlanError, match="1..62"):
        quantize_table(table, 63, 1.0)
    with pytest.raises(PlanError, match="grid scale"):
        quantize_table(table, 8, float("nan"))
