"""Edge-coloring decomposition: halving iteration, chains, piece lookups."""

import collections
import dataclasses
import hashlib
import sys
import threading

import numpy as np
import pytest

from hamsim import cli, coloring, numerics, oracle
from hamsim.coloring import (
    REFERENCE_TRACE_MAIN, REFERENCE_TRACE_SHIFTED, VERIFY_SAMPLE, EdgeLabel,
    QueryCache, build_chain, coin_toss_level, colored_query, enumerate_labels, final_alphabet, halving_trace, iterate_count, upsilon,
    verify_coloring, vertex_bits)
from hamsim.config import ColoringError, OracleError, dense_cap
from hamsim.one_sparse import OneSparseTable, extract_table
from oracle_helpers import colored_pieces, shuffled_columns


@pytest.mark.parametrize("n,z", [
    (1, 0), (2, 0), (3, 1), (4, 2), (5, 3), (6, 3), (8, 3), (9, 4),
    (18, 4), (32, 4), (64, 4),
])
def test_iterate_count_values(n, z):
    assert iterate_count(n) == z


def test_iterate_count_monotone_and_cheap():
    vals = [iterate_count(n) for n in range(1, 200)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    # doubly exponential growth of the inverse: still tiny for huge widths
    assert iterate_count(10 ** 6) == 5


def test_vertex_bits():
    assert vertex_bits(5, 4) == "0101"
    assert vertex_bits(0, 3) == "000"
    with pytest.raises(ColoringError):
        vertex_bits(8, 3)


def test_reference_trace_main_reproduced():
    col0 = tuple(row[0] for row in REFERENCE_TRACE_MAIN)
    levels = halving_trace(col0, 4)
    widths = [len(v[0]) for v in levels]
    assert widths == [18, 6, 4, 3, 3]
    for p in range(1, 5):
        assert levels[p] == tuple(row[p] for row in REFERENCE_TRACE_MAIN)
    # the tag of the first vertex, straight out of the worked example
    assert levels[4][0] == "000"


def test_reference_trace_shifted_reproduced():
    col0 = tuple(row[0] for row in REFERENCE_TRACE_SHIFTED)
    levels = halving_trace(col0, 4)
    for p in range(1, 5):
        assert levels[p] == tuple(row[p] for row in REFERENCE_TRACE_SHIFTED)
    assert levels[4][0] == "100"
    # shifted view shares five vertices with the main one yet ends in a
    # different tag
    assert levels[4][0] != halving_trace(
        tuple(row[0] for row in REFERENCE_TRACE_MAIN), 4)[4][0]


def test_end_rule_uses_first_bit_and_position_zero():
    values, width = coin_toss_level((0b1010, 0b0110), 4)
    assert width == 3
    # last element: first bit 0, position 0 in two bits
    assert values[1] == 0b000
    # pair element: differ at position 0, bit of the earlier label is 1
    assert values[0] == 0b100


def test_single_element_sequence():
    assert coin_toss_level((0b11010,), 5) == ((0b1000,), 4)


def test_width_one_is_fixed_point():
    assert coin_toss_level((1, 0, 1), 1) == ((1, 0, 1), 1)


def test_sequence_validation():
    with pytest.raises(ColoringError, match="equal"):
        coin_toss_level((0b101, 0b101), 3)
    with pytest.raises(ColoringError, match="empty"):
        coin_toss_level((), 3)
    with pytest.raises(ColoringError, match="width"):
        coin_toss_level((0b1000,), 3)
    with pytest.raises(ColoringError, match="width"):
        coin_toss_level((-1,), 3)
    # the string form is checked where strings come in
    with pytest.raises(ColoringError, match="malformed"):
        halving_trace(("10", "101"), 1)
    with pytest.raises(ColoringError, match="malformed"):
        halving_trace(("1a1",), 1)
    with pytest.raises(ColoringError, match="empty"):
        halving_trace((), 1)
    # the width is validated before the round count is looked up
    for bad in (0, 2.5, [3], "4"):
        with pytest.raises(ColoringError) as err:
            iterate_count(bad)
        assert str(err.value) == f"need a positive vertex width, got {bad}"


@pytest.mark.parametrize("n", [4, 18, 32])
def test_halving_keeps_neighbors_distinct(n):
    # The load-bearing property: at every level consecutive values stay
    # distinct (coin_toss_level raises on equal neighbors), and after z
    # rounds everything lands in the six-value alphabet.
    rng = np.random.default_rng(100 + n)
    z = iterate_count(n)
    for _ in range(300):
        length = int(rng.integers(2, z + 4))
        verts = sorted(rng.choice(1 << n, size=length, replace=False).tolist())
        levels = halving_trace(tuple(vertex_bits(v, n) for v in verts), z)
        assert all(v in coloring.FINAL_ALPHABET for v in levels[z])


@pytest.mark.parametrize("n", [5, 18])
def test_shifted_chain_agreement_region(n):
    # A chain seen from one vertex lower agrees with the original wherever
    # the argument needs it: everywhere at level 0, on the first z+1-p
    # shifted positions at level p, and in particular at position 1 of the
    # final level, while the two tags themselves always differ.
    rng = np.random.default_rng(200 + n)
    z = iterate_count(n)
    for _ in range(200):
        total = int(rng.integers(2, z + 5))
        path = sorted(rng.choice(1 << n, size=total, replace=False).tolist())
        w_chain = path[:z + 2]
        x_chain = path[1:][:z + 2]
        if not x_chain:
            continue
        w_levels = halving_trace(tuple(vertex_bits(v, n) for v in w_chain), z)
        x_levels = halving_trace(tuple(vertex_bits(v, n) for v in x_chain), z)
        for l in range(len(x_chain)):
            if l + 1 < len(w_chain):
                assert w_levels[0][l + 1] == x_levels[0][l]
        for p in range(1, z + 1):
            for l1 in range(1, min(len(w_chain), z + 2 - p)):
                assert w_levels[p][l1] == x_levels[p][l1 - 1]
        assert w_levels[z][0] != x_levels[z][0]


def test_final_alphabet_shapes():
    assert final_alphabet(18) == coloring.FINAL_ALPHABET
    assert final_alphabet(2) == ("00", "01", "10", "11")
    assert final_alphabet(1) == ("0", "1")
    assert len(enumerate_labels(4, 6)) == 6 * 16
    assert len(enumerate_labels(2, 2)) == 4 * 4


# ---------------------------------------------------------------------------
# An 18-bit path fixture whose slot layout pins the worked traces: the chain
# w < x0 < ... < x6 uses slot 1 upward and slot 3 downward, with filler
# neighbors in slot 2 keeping the nonzero slots contiguous.

W_V = int(REFERENCE_TRACE_SHIFTED[0][0], 2)
X_V = [int(row[0], 2) for row in REFERENCE_TRACE_MAIN]
X6_V = X_V[5] + 1


def path_fixture():
    chain = [W_V] + X_V + [X6_V]
    fillers = list(range(1, 7))       # for x0..x5
    extra = [7, 8]                    # two fillers giving x6 a slot-3 back edge
    cols = {W_V: [(X_V[0], 1.0 + 0j)]}
    for idx in range(6):
        me = chain[1 + idx]           # x_idx
        nxt = chain[2 + idx]
        prev = chain[idx]
        cols[me] = [(nxt, 1.0 + 0j), (fillers[idx], 1.0 + 0j), (prev, 1.0 + 0j)]
    cols[X6_V] = [(extra[0], 1.0 + 0j), (extra[1], 1.0 + 0j), (X_V[5], 1.0 + 0j)]
    for idx, f in enumerate(fillers):
        cols[f] = [(chain[1 + idx], 1.0 + 0j)]
    for g in extra:
        cols[g] = [(X6_V, 1.0 + 0j)]
    return oracle.from_columns(18, 3, cols)


def test_path_fixture_lays_out_only_its_rows(monkeypatch):
    # 2^18 vertices, but the build checks only the rows it is given
    shapes = []
    real = oracle.entries_from_slots

    def spy(ys, vs, xs=None):
        shapes.append(ys.shape)
        return real(ys, vs, xs)

    monkeypatch.setattr(oracle, "entries_from_slots", spy)
    orc = path_fixture()
    assert shapes == [(16, 3)]       # the chain, 6 fillers and 2 extras
    assert orc.query(X_V[0], 1) == (X_V[1], 1 + 0j)


def test_build_chain_on_path_fixture():
    orc = path_fixture()
    # six-element cap: x6 is reachable but the chain stops at z+2 = 6
    assert build_chain(orc, X_V[0], 1, 3, {}) == X_V
    assert build_chain(orc, W_V, 1, 3, {}) == [W_V] + X_V[:5]
    # one vertex further in, the natural seventh element appears instead
    assert build_chain(orc, X_V[1], 1, 3, {}) == X_V[1:] + [X6_V]


def test_build_chain_preconditions():
    orc = path_fixture()
    with pytest.raises(ColoringError):
        build_chain(orc, X_V[1], 3, 1, {})       # slot 3 points downward
    with pytest.raises(ColoringError):
        build_chain(orc, 1, 1, 3, {})            # filler's partner loops elsewhere


def test_upsilon_matches_reference_tags():
    orc = path_fixture()
    assert upsilon(orc, X_V[0], 1, 3, {}) == "000"
    assert upsilon(orc, W_V, 1, 3, {}) == "100"


def test_upsilon_cache_reuse():
    orc = path_fixture()
    cache = QueryCache()
    upsilon(orc, X_V[0], 1, 3, cache)
    before = orc.counter.count
    upsilon(orc, X_V[0], 1, 3, cache)
    assert orc.counter.count == before


def test_colored_query_claims_edges_consistently():
    orc = path_fixture()
    lbl_x = EdgeLabel(1, 3, "000")
    lbl_w = EdgeLabel(1, 3, "100")
    assert colored_query(orc, X_V[0], lbl_x) == (X_V[1], 1.0 + 0j)
    assert colored_query(orc, X_V[1], lbl_x) == (X_V[0], 1.0 + 0j)
    assert colored_query(orc, W_V, lbl_w) == (X_V[0], 1.0 + 0j)
    assert colored_query(orc, X_V[0], lbl_w) == (W_V, 1.0 + 0j)
    # x1's own upward edge carries the tag of the chain starting at x1
    up_tag = upsilon(orc, X_V[1], 1, 3, {})
    assert colored_query(orc, X_V[1], EdgeLabel(1, 3, up_tag)) == (X_V[2], 1.0 + 0j)
    # and a tag belonging to neither adjacent edge stays silent there
    silent = next(nu for nu in coloring.FINAL_ALPHABET
                  if nu not in ("000", up_tag))
    assert colored_query(orc, X_V[1], EdgeLabel(1, 3, silent)) == (X_V[1], 0j)


def test_colored_query_per_call_budget_is_tight():
    orc = path_fixture()
    bound = 2 * (iterate_count(18) + 2)
    # both endpoint cases run through full chains, whatever the tag: a
    # mismatching one and a matching one spend the same
    for nu in ("001", "000"):
        before = orc.counter.count
        colored_query(orc, X_V[0], EdgeLabel(1, 3, nu))
        assert orc.counter.count - before == bound


def test_colored_query_diagonal_case():
    orc = oracle.from_entry_list(oracle.EntryList(3, 2, (
        (1, 1, 0.5), (1, 4, 1.0 + 1.0j), (2, 2, -0.25),
    )))
    z = iterate_count(3)
    assert z == 1
    # vertex 1 carries its diagonal in slot 1 (canonical ascending order)
    assert colored_query(orc, 1, EdgeLabel(1, 1, "000")) == (1, 0.5 + 0j)
    assert colored_query(orc, 2, EdgeLabel(1, 1, "000")) == (2, -0.25 + 0j)
    # but not under a nonzero tag or mismatched slots
    assert colored_query(orc, 1, EdgeLabel(1, 1, "100")) == (1, 0j)
    assert colored_query(orc, 1, EdgeLabel(2, 2, "000")) == (1, 0j)


def test_case_conditions_mutually_exclusive():
    # For every vertex and (i, j), at most one of the three claims fires;
    # checked directly from raw structure plus tags.
    for seed in range(6):
        orc = oracle.random_sparse(4, 3, seed=seed)
        for x in range(orc.dim):
            for i in range(1, 4):
                for j in range(1, 4):
                    yi, vi = orc.peek(x, i)
                    c1 = yi == x and vi != 0 and i == j
                    c2 = False
                    if yi > x and orc.peek(yi, j)[0] == x:
                        c2 = True
                    yj, vj = orc.peek(x, j)
                    c3 = False
                    if yj < x and orc.peek(yj, i)[0] == x:
                        c3 = True
                    if c2 and c3:
                        # both structural claims: tags must disagree
                        assert (upsilon(orc, x, i, j, {})
                                != upsilon(orc, yj, i, j, {}))
                    assert not (c1 and c2)
                    assert not (c1 and c3)


def test_verify_coloring_random_oracles():
    for seed, (n, d) in enumerate([(3, 2), (4, 3), (5, 2), (6, 4)]):
        orc = oracle.random_sparse(n, d, seed=50 + seed)
        rep = verify_coloring(orc)
        assert rep.ok, rep.failures
        assert rep.max_queries_per_call <= rep.query_bound


def test_verify_coloring_shuffled_slots():
    orc = oracle.random_sparse(5, 3, seed=77)
    rep = verify_coloring(shuffled_columns(orc, seed=1))
    assert rep.ok, rep.failures


def test_verify_coloring_trivial_cases():
    # no entries at all: every piece is empty
    empty = oracle.SparseOracle(3, 2, lambda x, i: (x, 0j))
    rep = verify_coloring(empty)
    assert rep.ok and rep.nonzero_pieces == 0
    # diagonal-only
    diag = oracle.from_entry_list(oracle.EntryList(3, 2, (
        (0, 0, 1.0), (5, 5, -2.0))))
    rep = verify_coloring(diag)
    assert rep.ok and rep.nonzero_pieces >= 1


@pytest.mark.parametrize("made, given", [((4, 2), (3, 2)), ((3, 3), (3, 2))])
def test_verify_coloring_refuses_another_oracles_decomposition(made, given):
    """A decomposition of another (n, d) ends in a ColoringError naming
    both shapes before the oracle is asked anything: a larger n would
    index past the oracle, a larger d would report failures it has not."""
    dec = coloring.decompose(oracle.random_sparse(*made, seed=1))
    orc = oracle.random_sparse(*given, seed=1)
    with pytest.raises(ColoringError) as exc:
        verify_coloring(orc, dec)
    assert str(exc.value) == (
        f"a decomposition of n={made[0]}, d={made[1]} cannot verify an "
        f"oracle of n={given[0]}, d={given[1]}")
    assert orc.counter.count == 0
    assert verify_coloring(orc, coloring.decompose(orc)).ok


def _one_table_less(tables):
    return tables[:-1]


def _table_4_at_dim_64(tables):
    return (*tables[:4], dataclasses.replace(tables[4], dim=64), *tables[5:])


def _table_4_with_row_40(tables):
    return (*tables[:4], OneSparseTable(64, [40], [1.0], [], [], []),
            *tables[5:])


@pytest.mark.parametrize("mutate, dims", [
    (_one_table_less, "23 of dims [16]"),
    (_table_4_at_dim_64, "24 of dims [16, 64]"),
    (_table_4_with_row_40, "24 of dims [16, 64]")],
    ids=["one-table-less", "table-4-at-dim-64", "table-4-with-row-40"])
def test_verify_coloring_refuses_a_malformed_decomposition(mutate, dims):
    """A value of the right (n, d) whose tables are not one per label, each
    of the oracle's dim, ends in a ColoringError before any query: a
    missing table would leave its label unchecked, a wider one would pass
    or index past the oracle."""
    dec = coloring.decompose(oracle.random_sparse(4, 2, seed=1))
    orc = oracle.random_sparse(4, 2, seed=1)
    bad = dataclasses.replace(dec, tables=mutate(dec.tables))
    with pytest.raises(ColoringError) as exc:
        verify_coloring(orc, bad)
    assert str(exc.value) == (
        f"a decomposition needs 24 tables of dim 16, got {dims}")
    assert orc.counter.count == 0


def test_decompose_sums_to_dense():
    orc = oracle.random_sparse(4, 2, seed=12)
    H = oracle.to_dense(orc)
    pieces = colored_pieces(orc)
    assert len(pieces) == 6 * 4
    total = np.zeros_like(H)
    for piece in pieces:
        mat = np.zeros_like(H)
        for x in range(orc.dim):
            y, v = piece.column(x)
            if v != 0:
                mat[x, y] = v
        total += mat
    assert np.array_equal(total, H)


def test_verify_coloring_reports_constant_tags():
    # With every tag forced to the all-zeros value, the piece lookups stop
    # answering what the coloring's tables hold: each piece whose lookups
    # moved is reported once, at its first differing vertex.
    orc = oracle.random_sparse(4, 3, seed=6)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring, "upsilon", lambda *args, **kwargs: "000")
        rep = verify_coloring(orc)
    assert not rep.ok
    assert rep.failures == tuple(
        f"label EdgeLabel(i={i}, j={j}, nu='{nu}'): lookup at {x} "
        f"disagrees with the table ({count} in all)"
        for i, j, nu, x, count in (
            (1, 1, "000", 0, 4), (1, 1, "101", 0, 2), (1, 1, "110", 1, 2),
            (1, 2, "000", 2, 4), (1, 2, "101", 2, 4), (2, 1, "000", 0, 3),
            (2, 1, "110", 0, 4), (2, 2, "000", 5, 2), (2, 2, "101", 5, 2),
            (3, 1, "000", 2, 1), (3, 1, "001", 2, 2), (3, 2, "000", 8, 1),
            (3, 2, "101", 8, 2)))
    assert (rep.nonzero_pieces, rep.max_queries_per_call) == (12, 4)
    assert rep.lookups_checked == 54 * orc.dim


def test_verify_coloring_reports_overlap_once(monkeypatch):
    # Label nu = "001" answers as "000": its lookups repeat a valid piece
    # (the diagonals among them), claiming entries a second time.  Each
    # such piece is reported once, where its lookups first leave its table.
    real = coloring.colored_query

    def aliased(orc, x, label, claims=None):
        if label.nu == "001":
            label = EdgeLabel(label.i, label.j, "000")
        return real(orc, x, label, claims)

    monkeypatch.setattr(coloring, "colored_query", aliased)
    rep = verify_coloring(oracle.random_sparse(4, 3, seed=21))
    assert rep.failures == tuple(
        f"label EdgeLabel(i={i}, j={j}, nu='001'): lookup at {x} "
        f"disagrees with the table ({count} in all)"
        for i, j, x, count in ((1, 1, 3, 2), (1, 2, 1, 2), (2, 1, 0, 10),
                               (2, 2, 6, 5), (3, 1, 0, 6), (3, 2, 2, 6),
                               (3, 3, 4, 8)))
    assert (rep.nonzero_pieces, rep.max_queries_per_call) == (11, 5)


def test_upsilon_golden_digest():
    # Every (x, i, j) of one fixed oracle: the tag, or "-" where x has no
    # ascending (i, j)-edge and upsilon refuses.
    orc = oracle.random_sparse(6, 4, seed=6)
    lines = []
    for x in range(orc.dim):
        for i in range(1, 5):
            for j in range(1, 5):
                try:
                    tag = upsilon(orc, x, i, j, {})
                except ColoringError:
                    tag = "-"
                lines.append(f"{x} {i} {j} {tag}")
    assert sum(not line.endswith("-") for line in lines) == 116
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "64c37ceb3bc7dae82218e6a50f9ad76621638a181059953cf6ae3a167887eb73")


# ---------------------------------------------------------------------------
# decompose's tables, the vectorized pass, against the per-lookup path

def twins(n, d):
    orc = oracle.random_sparse(n, d, seed=10 * n + d)
    return orc, shuffled_columns(orc, seed=n + d)


@pytest.mark.parametrize("n", range(3, 9))
def test_piece_tables_tags_equal_upsilon(n):
    # every ascending (i, j)-edge (x, y) sits in piece (i, j, upsilon(x))
    # and in no other piece
    for d in range(1, 5):
        for orc in twins(n, d):
            labels = enumerate_labels(d, n)
            tagged = {}
            for label, table in zip(labels, coloring.decompose(orc).tables):
                for x in table.pair_lo.tolist():
                    assert (x, label.i, label.j) not in tagged
                    tagged[x, label.i, label.j] = label.nu
            cache = QueryCache()
            want = {}
            for x in range(orc.dim):
                for i in range(1, d + 1):
                    y = orc.peek(x, i)[0]
                    for j in range(1, d + 1):
                        if y > x and orc.peek(y, j)[0] == x:
                            want[x, i, j] = upsilon(orc, x, i, j, cache)
            assert tagged == want, (n, d)


@pytest.mark.parametrize("n", range(3, 9))
def test_piece_tables_equal_extracted_pieces(n):
    fields = ("diag_idx", "diag_h", "pair_lo", "pair_hi", "pair_amp")
    for d in range(1, 5):
        for orc in twins(n, d):
            before = orc.counter.count
            tables = coloring.decompose(orc).tables
            assert orc.counter.count - before == orc.dim * d
            extracted = [extract_table(p) for p in colored_pieces(orc)]
            assert len(tables) == len(extracted) == len(enumerate_labels(d, n))
            for got, want in zip(tables, extracted):
                assert got.dim == want.dim
                for name in fields:
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_piece_tables_refuse_malformed_slots_as_read_entries_does():
    # a diagonal that is not real, a pair that is not Hermitian and an
    # edge whose two slots both hold zero are refused before any table is
    # built, with read_entries' own messages
    def zero_fn(x, i):
        return (7 - x, 0j) if i == 1 and x in (2, 5) else (x, 0j)

    def diag_fn(x, i):
        return (3, 0.5 + 1e-6j) if (x, i) == (3, 1) else (x, 0j)

    def pair_fn(x, i):
        if i == 1 and x in (2, 5):
            return (7 - x, 1.0 + 0.5j if x == 2 else 1.0 - 0.25j)
        return (x, 0j)

    for fn, message in (
            (zero_fn, "row 2: explicit zero at slot 1"),
            (diag_fn, "oracle is not Hermitian: max deviation 2.000e-06"),
            (pair_fn, "oracle is not Hermitian: max deviation 2.500e-01")):
        orc = oracle.SparseOracle(3, 2, fn)
        with pytest.raises(OracleError) as want:
            oracle.read_entries(orc)
        assert str(want.value) == message
        with pytest.raises(OracleError) as got:
            coloring.decompose(orc)
        assert str(got.value) == message


# ---------------------------------------------------------------------------
# verify_coloring on copies of good tables with one fault each

def verify_with(orc, corrupt, monkeypatch):
    """verify_coloring(orc) with its tables passed through corrupt."""
    real = coloring.tables_from_slots
    monkeypatch.setattr(coloring, "tables_from_slots",
                        lambda *slots: corrupt(list(real(*slots))))
    return verify_coloring(orc)


def first_pair(tables):
    return next(g for g, t in enumerate(tables) if t.pair_lo.size)


def without_first_pair(table):
    return dataclasses.replace(table, pair_lo=table.pair_lo[1:],
                               pair_hi=table.pair_hi[1:],
                               pair_amp=table.pair_amp[1:])


VERIFY_ORACLE = dict(n=5, d=3, seed=8)


def test_verify_coloring_catches_a_dropped_entry(monkeypatch):
    orc = oracle.random_sparse(**VERIFY_ORACLE)
    labels = enumerate_labels(3, 5)
    good = coloring.decompose(orc).tables
    g = first_pair(good)

    def drop(tables):
        tables[g] = without_first_pair(tables[g])
        return tables

    rep = verify_with(orc, drop, monkeypatch)
    assert not rep.ok
    assert rep.failures == (
        f"label {labels[g]}: lookup at {good[g].pair_lo[0]} disagrees with "
        f"the table (2 in all)",
        "pieces do not sum back to the Hamiltonian")


def test_verify_coloring_catches_one_ulp(monkeypatch):
    orc = oracle.random_sparse(**VERIFY_ORACLE)
    labels = enumerate_labels(3, 5)
    good = coloring.decompose(orc).tables
    g = first_pair(good)

    def nudge(tables):
        amp = tables[g].pair_amp.copy()
        amp[0] = complex(np.nextafter(amp[0].real, np.inf), amp[0].imag)
        tables[g] = dataclasses.replace(tables[g], pair_amp=amp)
        return tables

    rep = verify_with(orc, nudge, monkeypatch)
    assert not rep.ok
    assert rep.failures == (
        f"label {labels[g]}: lookup at {good[g].pair_lo[0]} disagrees with "
        f"the table (2 in all)",
        "pieces do not sum back to the Hamiltonian")


def test_verify_coloring_catches_an_entry_under_another_label(monkeypatch):
    # the union and the disjointness still hold: only the lookups see it
    orc = oracle.random_sparse(**VERIFY_ORACLE)
    labels = enumerate_labels(3, 5)
    good = coloring.decompose(orc).tables
    g = first_pair(good)
    lo, hi = int(good[g].pair_lo[0]), int(good[g].pair_hi[0])
    h = next(h for h, t in enumerate(good) if h != g and not np.isin(
        [lo, hi], np.concatenate([t.diag_idx, t.pair_lo, t.pair_hi])).any())

    def move(tables):
        src, dst = tables[g], tables[h]
        tables[g] = without_first_pair(src)
        tables[h] = dataclasses.replace(
            dst, pair_lo=np.r_[dst.pair_lo, lo], pair_hi=np.r_[dst.pair_hi, hi],
            pair_amp=np.r_[dst.pair_amp, src.pair_amp[0]])
        return tables

    rep = verify_with(orc, move, monkeypatch)
    assert not rep.ok
    assert rep.failures == tuple(
        f"label {labels[k]}: lookup at {lo} disagrees with the table "
        f"(2 in all)" for k in sorted((g, h)))


def test_verify_coloring_catches_an_entry_claimed_twice(monkeypatch):
    orc = oracle.random_sparse(**VERIFY_ORACLE)
    labels = enumerate_labels(3, 5)
    good = coloring.decompose(orc).tables
    g = first_pair(good)
    lo, hi = int(good[g].pair_lo[0]), int(good[g].pair_hi[0])
    h = next(h for h, t in enumerate(good) if h != g and not np.isin(
        [lo, hi], np.concatenate([t.diag_idx, t.pair_lo, t.pair_hi])).any())

    def copy(tables):
        dst = tables[h]
        tables[h] = dataclasses.replace(
            dst, pair_lo=np.r_[dst.pair_lo, lo], pair_hi=np.r_[dst.pair_hi, hi],
            pair_amp=np.r_[dst.pair_amp, good[g].pair_amp[0]])
        return tables

    rep = verify_with(orc, copy, monkeypatch)
    assert not rep.ok
    assert rep.failures == (
        f"label {labels[h]}: lookup at {lo} disagrees with the table "
        f"(2 in all)",
        "pieces overlap: some entry claimed more than once",
        "pieces do not sum back to the Hamiltonian")


def test_verify_coloring_catches_a_lookup_over_budget(monkeypatch):
    orc = oracle.random_sparse(**VERIFY_ORACLE)
    labels = enumerate_labels(3, 5)
    bound = 2 * (iterate_count(5) + 2)
    real = coloring.colored_query

    def costly(base, x, label, claims=None):
        before = base.counter.count
        out = real(base, x, label, claims)
        if (label, x) == (labels[7], 9):
            for _ in range(bound + 1 - (base.counter.count - before)):
                base.query(x, 1)
        return out

    monkeypatch.setattr(coloring, "colored_query", costly)
    rep = verify_coloring(orc)
    assert not rep.ok
    assert rep.failures == (
        f"label {labels[7]}: lookup at 9 used {bound + 1} > {bound} queries",)
    assert rep.max_queries_per_call == bound + 1


# ---------------------------------------------------------------------------
# exact query accounting of the per-lookup path, measured at fixed seeds

def test_verify_coloring_spends_an_exact_query_count():
    orc = oracle.random_sparse(9, 4, seed=1, norm_target=1.0)
    rep = verify_coloring(orc)
    assert rep.ok, rep.failures
    assert orc.counter.count == 24_875
    assert (rep.max_queries_per_call, rep.lookups_checked) == (10, 49_152)
    # dim * d of them read the tables, the other 22,827 the lookups: one
    # cold read per (i, j, x), which all six tags there pick from
    before = orc.counter.count
    coloring.decompose(orc)
    assert orc.counter.count - before == 2_048


def test_verify_coloring_charges_each_lookup_its_own_thread_spend():
    # another thread querying the same oracle throughout the check, with
    # frequent switches, must not be charged to the lookups being checked
    orc = oracle.random_sparse(8, 3, seed=1, norm_target=1)
    stop = threading.Event()

    def query_until_stopped():
        while not stop.is_set():
            orc.query(0, 1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    querier = threading.Thread(target=query_until_stopped)
    querier.start()
    try:
        rep = verify_coloring(orc)
    finally:
        stop.set()
        querier.join()
        sys.setswitchinterval(interval)
    assert rep.ok, rep.failures[:3]
    assert (rep.max_queries_per_call, rep.lookups_checked) == (10, 13_824)


def test_cold_lookups_make_the_same_queries_in_the_same_order():
    # every (label, x) of one oracle through a fresh cache: how many base
    # queries each lookup spent, and every (x, i) asked, in order; the
    # spend does not depend on the tag, so each count comes in sixes
    base = oracle.random_sparse(8, 3, seed=1, norm_target=1.0)
    asked = []

    def fn(x, i):
        asked.append((x, i))
        return base.peek(x, i)

    orc = oracle.SparseOracle(8, 3, fn)
    spent = collections.Counter()
    for label in enumerate_labels(3, 8):
        for x in range(orc.dim):
            before = orc.counter.count
            colored_query(orc, x, label)
            spent[orc.counter.count - before] += 1
    assert spent == {1: 564, 2: 6390, 3: 4722, 4: 1476, 5: 348, 6: 210,
                     7: 66, 8: 30, 9: 12, 10: 6}
    assert len(asked) == orc.counter.count == 37_284
    digest = hashlib.sha256(repr(asked).encode()).hexdigest()
    assert digest == (
        "25e6b8abd97db629302374a9182e8d56c7529375e3e9e3895a3aeb911999c4d9")
    # verification reads the slots once, then one cold lookup per (i, j, x)
    before = orc.counter.count
    assert verify_coloring(orc).ok
    assert orc.counter.count - before == 6_982 == orc.dim * 3 + 37_284 // 6


def test_verify_coloring_looks_up_through_colored_oracle_column(monkeypatch):
    # the benchmark counts coloring.lookups by patching this class
    # attribute, so every checked lookup must go through it, sampled or not
    column = coloring.ColoredOracle.column
    calls = []

    def counted(piece, x):
        calls.append(x)
        return column(piece, x)

    monkeypatch.setattr(coloring.ColoredOracle, "column", counted)
    rep = verify_coloring(oracle.random_sparse(4, 3, seed=2))
    assert rep.ok and len(calls) == rep.lookups_checked == 54 * 16
    monkeypatch.setenv("HAMSIM_DENSE_CAP", "64")
    calls.clear()
    rep = verify_coloring(oracle.random_sparse(7, 3, seed=1))
    assert rep.ok and len(calls) == rep.lookups_checked == VERIFY_SAMPLE


# ---------------------------------------------------------------------------
# the grouped check against an independent reference: every (label, x)
# looked up cold and on its own, by the lazy lookup that stops at the first
# claim that holds

def lazy_lookup(orc, x, label, cache):
    """Row x of piece label, reading only as far as the answer needs."""
    def ask(y, slot):
        if (y, slot) not in cache:
            cache[y, slot] = orc.query(y, slot)
        return cache[y, slot]

    i, j, nu = label.i, label.j, label.nu
    yi, vi = ask(x, i)
    if yi == x and vi != 0 and i == j and nu == "0" * len(nu):
        return (x, vi)
    if yi > x and ask(yi, j)[0] == x and coloring.upsilon(
            orc, x, i, j, cache) == nu:
        return (yi, vi)
    yj, vj = ask(x, j)
    if yj < x and ask(yj, i)[0] == x and coloring.upsilon(
            orc, yj, i, j, cache) == nu:
        return (yj, vj)
    return (x, 0j)


def reference_report(orc, tables, lookup=lazy_lookup):
    """verify_coloring's verdict with one fresh cache per (label, x), in
    label order, and the overlap and sum-back checks on Python dicts."""
    dim, labels = orc.dim, enumerate_labels(orc.d, orc.n)
    bound = 2 * (iterate_count(orc.n) + 2)
    total = len(labels) * dim
    if dim <= dense_cap() or total <= VERIFY_SAMPLE:
        picks = range(total)
    else:
        picks = sorted(np.random.default_rng(coloring.VERIFY_SEED).choice(
            total, size=VERIFY_SAMPLE, replace=False).tolist())
    checked = collections.defaultdict(list)
    for p in picks:
        checked[p // dim].append(p % dim)
    failures, most = [], 0
    for g, label in enumerate(labels):
        at, to, val = (a.tolist() for a in tables[g].entries())
        want = dict(zip(at, zip(to, val)))
        wrong = []
        for x in checked[g]:
            before = orc.counter.count
            got = lookup(orc, x, label, {})
            used = orc.counter.count - before
            most = max(most, used)
            if used > bound:
                failures.append(f"label {label}: lookup at {x} used "
                                f"{used} > {bound} queries")
            if got != want.get(x, (x, 0j)):
                wrong.append(x)
        if wrong:
            failures.append(f"label {label}: lookup at {wrong[0]} disagrees "
                            f"with the table ({len(wrong)} in all)")
    claimed = collections.Counter()
    held = {}
    for table in tables:
        for r, c, v in zip(*(a.tolist() for a in table.entries())):
            claimed[r, c] += 1
            held[r, c] = v
    overlap = any(k > 1 for k in claimed.values())
    if overlap:
        failures.append("pieces overlap: some entry claimed more than once")
    rows, cols, vals = (a.tolist() for a in oracle.read_entries(orc))
    if overlap or held != dict(zip(zip(rows, cols), vals)):
        failures.append("pieces do not sum back to the Hamiltonian")
    return dict(ok=not failures, failures=tuple(failures),
                nonzero_pieces=sum(1 for t in tables if t.entry_count),
                lookups_checked=len(picks), max_queries_per_call=most)


def grouped_report(rep):
    return dict(ok=rep.ok, failures=rep.failures,
                nonzero_pieces=rep.nonzero_pieces,
                lookups_checked=rep.lookups_checked,
                max_queries_per_call=rep.max_queries_per_call)


@pytest.mark.parametrize("n", range(1, 9))
def test_grouped_check_equals_the_cold_reference(n):
    # d runs to 4 or the dimension, the most slots a row can fill
    for d in range(1, min(4, 2 ** n) + 1):
        for seed in range(1, 4):
            orc = oracle.random_sparse(n, d, seed=seed)
            want = reference_report(orc, coloring.decompose(orc).tables)
            assert want["ok"], (n, d, seed, want["failures"][:3])
            assert grouped_report(verify_coloring(orc)) == want, (n, d, seed)


def test_grouped_check_above_the_cap_may_only_spend_more(monkeypatch):
    # a sampled lookup whose tag matches early reads less than the claims
    # of its (i, j, x) read cold: the reported most may rise (once on this
    # grid), never past the budget
    monkeypatch.setenv("HAMSIM_DENSE_CAP", "64")
    rose = []
    for n in (7, 8, 9):
        for d in range(1, 5):
            for seed in range(1, 4):
                orc = oracle.random_sparse(n, d, seed=seed)
                want = reference_report(orc, coloring.decompose(orc).tables)
                rep = verify_coloring(orc)
                got = grouped_report(rep)
                most = got.pop("max_queries_per_call")
                cold = want.pop("max_queries_per_call")
                assert cold <= most <= rep.query_bound
                assert got == want and want["ok"], (n, d, seed)
                if most > cold:
                    rose.append((n, d, seed, cold, most))
    assert rose == [(9, 4, 3, 8, 9)]


def test_grouped_check_and_the_reference_fail_mutants_alike(monkeypatch):
    # the lookups disagree with good tables (constant or aliased tags), or
    # good lookups disagree with faulty tables (a dropped entry, one ulp)
    orc = oracle.random_sparse(4, 3, seed=6)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring, "upsilon", lambda *args, **kwargs: "000")
        want = reference_report(orc, coloring.decompose(orc).tables)
        assert grouped_report(verify_coloring(orc)) == want
    assert len(want["failures"]) == 13

    def alias(label):
        if label.nu == "001":
            return EdgeLabel(label.i, label.j, "000")
        return label

    real = coloring.colored_query
    orc = oracle.random_sparse(4, 3, seed=21)
    want = reference_report(orc, coloring.decompose(orc).tables,
                            lambda o, x, label, c: lazy_lookup(
                                o, x, alias(label), c))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring, "colored_query",
                   lambda o, x, label, *memos: real(o, x, alias(label),
                                                    *memos))
        assert grouped_report(verify_coloring(orc)) == want
    assert len(want["failures"]) == 7

    orc = oracle.random_sparse(**VERIFY_ORACLE)
    dec = coloring.decompose(orc)
    good = dec.tables
    g = first_pair(good)
    amp = good[g].pair_amp.copy()
    amp[0] = complex(np.nextafter(amp[0].real, np.inf), amp[0].imag)
    for tables in ((*good[:g], without_first_pair(good[g]), *good[g + 1:]),
                   (*good[:g], dataclasses.replace(good[g], pair_amp=amp),
                    *good[g + 1:])):
        want = reference_report(orc, tables)
        assert grouped_report(verify_coloring(
            orc, dataclasses.replace(dec, tables=tables))) == want
        assert len(want["failures"]) == 2


# ---------------------------------------------------------------------------
# no state outlives a verify_coloring call, and every lookup runs all the
# halving rounds itself

def all_tags(orc):
    out = []
    for x in range(orc.dim):
        for i in range(1, orc.d + 1):
            for j in range(1, orc.d + 1):
                try:
                    out.append(upsilon(orc, x, i, j, {}))
                except ColoringError:
                    out.append("-")
    return out


def test_verify_leaves_no_memo_for_another_width():
    # both oracles share small vertex numbers, so their chains overlap as
    # integer tuples while their halving rounds run at different widths
    other = oracle.random_sparse(5, 4, seed=3)
    tags = all_tags(other)
    answers = [colored_query(other, x, label)
               for label in enumerate_labels(4, 5) for x in range(other.dim)]
    assert verify_coloring(oracle.random_sparse(6, 4, seed=6)).ok
    assert all_tags(other) == tags
    assert [colored_query(other, x, label)
            for label in enumerate_labels(4, 5)
            for x in range(other.dim)] == answers


def test_upsilon_outside_verify_runs_every_round(monkeypatch):
    real = coloring.coin_toss_level
    rounds = []

    def counted(values, width):
        rounds.append(values)
        return real(values, width)

    monkeypatch.setattr(coloring, "coin_toss_level", counted)
    orc = path_fixture()
    z = iterate_count(18)
    for _ in range(3):
        assert upsilon(orc, X_V[0], 1, 3, {}) == "000"
    assert len(rounds) == 3 * z
    rounds.clear()
    # a lookup tags the edges at both endpoints, whether its tag matches
    # the first or not
    for _ in range(2):
        assert colored_query(orc, X_V[0], EdgeLabel(1, 3, "000")) == (
            X_V[1], 1.0 + 0j)
    assert len(rounds) == 2 * 2 * z


def test_verify_stays_independent_of_the_tables(monkeypatch):
    # an end-rule mutant of the per-lookup halving (position 1 in place of
    # 0) leaves decompose's tables alone, and a verified simulate must
    # refuse it
    real = coloring.coin_toss_level

    def end_rule_at_one(values, width):
        out, width = real(values, width)
        return out[:-1] + (out[-1] | 1,), width

    orc = oracle.random_sparse(6, 3, seed=1)
    assert cli.simulate_pipeline(orc, 1.0, 0.1)["verification"]["ok"]
    tables = coloring.decompose(orc).tables
    monkeypatch.setattr(coloring, "coin_toss_level", end_rule_at_one)
    for want, got in zip(tables, coloring.decompose(orc).tables):
        assert all(np.array_equal(a, b)
                   for a, b in zip(want.entries(), got.entries()))
    with pytest.raises(ColoringError):
        cli.simulate_pipeline(orc, 1.0, 0.1)


# ---------------------------------------------------------------------------
# the claims memo: one cold read per (i, j, x) within one verify_coloring
# call only

def test_verify_reads_each_row_and_slots_once_cold(monkeypatch):
    real = coloring.edge_claims
    seen = []

    def watched(orc, x, i, j):
        seen.append((x, i, j))
        return real(orc, x, i, j)

    monkeypatch.setattr(coloring, "edge_claims", watched)
    orc = oracle.random_sparse(4, 3, seed=2)
    assert verify_coloring(orc).ok
    assert seen == [(x, i, j) for i in range(1, 4) for j in range(1, 4)
                    for x in range(orc.dim)]
    # above the cap, once for each (i, j, x) the sample holds
    monkeypatch.setenv("HAMSIM_DENSE_CAP", "64")
    seen.clear()
    orc = oracle.random_sparse(7, 3, seed=1)
    labels = enumerate_labels(3, 7)
    picks = np.random.default_rng(coloring.VERIFY_SEED).choice(
        len(labels) * orc.dim, size=VERIFY_SAMPLE, replace=False)
    want = {(labels[p // orc.dim].i, labels[p // orc.dim].j, p % orc.dim)
            for p in picks.tolist()}
    assert verify_coloring(orc).ok
    reads = [(i, j, x) for x, i, j in seen]
    assert len(set(reads)) == len(reads)
    assert set(reads) == want
    # grouped by (i, j) in label order; within one (i, j), x follows the
    # labels, so it need not ascend
    slots = [(i, j) for i, j, _ in reads]
    assert slots == sorted(slots)


def test_verify_keeps_one_claims_memo_of_one_slot_pair(monkeypatch):
    # the memo is the same for every lookup of a call and holds the claims
    # of the current lookup's (i, j) only
    real = coloring.colored_query
    memos = []

    def watched(orc, x, label, claims=None):
        out = real(orc, x, label, claims)
        memos.append((claims, label, set(claims)))
        return out

    monkeypatch.setattr(coloring, "colored_query", watched)
    assert verify_coloring(oracle.random_sparse(6, 4, seed=6)).ok
    memo = memos[0][0]
    assert all(seen is memo for seen, _, _ in memos)
    assert all(key[1:] == (label.i, label.j)
               for _, label, keys in memos for key in keys)
