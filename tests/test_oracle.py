"""Oracle interface: counting, structure validation, serialization."""

import sys
import threading

import numpy as np
import pytest

from hamsim import cli, coloring, numerics, oracle, parity
from hamsim.config import OracleError
from hamsim.oracle import EntryList


def two_bit_example():
    # 2-bit path: 0 -- 1 -- 2 plus a diagonal at 3
    return oracle.from_entry_list(EntryList(2, 2, (
        (0, 1, 1.0 + 0.5j),
        (1, 2, -0.25 + 0j),
        (3, 3, 0.75 + 0j),
    )))


def test_query_returns_row_entries_in_order():
    orc = two_bit_example()
    assert orc.query(1, 1) == (0, 1.0 - 0.5j)
    assert orc.query(1, 2) == (2, -0.25 + 0j)
    assert orc.query(0, 1) == (1, 1.0 + 0.5j)


def test_padding_past_degree():
    orc = two_bit_example()
    assert orc.query(0, 2) == (0, 0j)
    assert orc.query(2, 2) == (2, 0j)


def test_counter_counts_exactly_the_query_calls():
    orc = two_bit_example()
    assert orc.counter.count == 0
    for _ in range(3):
        orc.query(0, 1)
    orc.query(3, 1)
    assert orc.counter.count == 4
    # peeks and dense extraction are instrument-side, never counted
    orc.peek(0, 1)
    oracle.to_dense(orc)
    oracle.to_entry_list(orc)
    assert orc.counter.count == 4
    orc.counter.reset()
    assert orc.counter.count == 0


def test_counter_is_exact_per_thread_and_across_reset():
    # Four threads share one oracle, one piece and one parity instance and
    # switch often.  Each total is exact, each thread's own tally is its own
    # calls, and reset() reads 0 with no count lost after it.  Under CPython
    # 3.11 an unlocked += also passes this; the per-lookup spend test in
    # test_coloring is the one that needs a thread's own tally.
    threads, queries, probes, reads = 4, 20_000, 50, 20_000
    orc = oracle.random_sparse(4, 3, seed=2)
    piece = coloring.ColoredOracle(orc, coloring.EdgeLabel(1, 2, "000"))
    inst = parity.ParityInstance([1, 0, 1, 1])
    probe_cost = orc.counter.thread_tally()[0]
    for x in range(probes):
        piece.column(x % orc.dim)
    probe_cost = orc.counter.thread_tally()[0] - probe_cost
    own = queries + probe_cost
    orc.counter.reset()
    piece.counter.reset()
    assert (orc.counter.count, piece.counter.count) == (0, 0)

    def work(tallies):
        start.wait()
        for q in range(queries):
            orc.query(q % orc.dim, q % orc.d + 1)
            inst.bit(q % inst.size + 1)
        for x in range(probes):
            piece.column(x % orc.dim)
        tallies.append((orc.counter.thread_tally()[0],
                        piece.counter.thread_tally()[0],
                        inst.counter.thread_tally()[0]))

    def run_round():
        tallies = []
        workers = [threading.Thread(target=work, args=(tallies,))
                   for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        return tallies

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        start = threading.Barrier(threads)
        tallies = run_round()
        assert tallies == [(own, probes, reads)] * threads
        assert orc.counter.count == threads * own
        assert piece.counter.count == threads * probes
        assert inst.counter.count == threads * reads
        for counter in (orc.counter, piece.counter, inst.counter):
            counter.reset()
            assert counter.count == 0
        assert orc.counter.thread_tally()[0] == probe_cost  # reset skips it
        assert run_round() == [(own, probes, reads)] * threads
        assert orc.counter.count == threads * own
        assert piece.counter.count == threads * probes
        assert inst.counter.count == threads * reads
    finally:
        sys.setswitchinterval(interval)


def test_argument_validation():
    orc = two_bit_example()
    with pytest.raises(OracleError):
        orc.query(4, 1)
    with pytest.raises(OracleError):
        orc.query(-1, 1)
    with pytest.raises(OracleError):
        orc.query(0, 0)
    with pytest.raises(OracleError):
        orc.query(0, 3)
    # a neighbor outside [0, dim) from the caller's function
    for bad in (-1, 2):
        orc = oracle.SparseOracle(1, 1, lambda x, i, y=bad: (y, 1.0))
        with pytest.raises(OracleError, match="neighbor"):
            orc.query(0, 1)
        with pytest.raises(OracleError, match="neighbor"):
            orc.peek(0, 1)
        with pytest.raises(OracleError, match="neighbor"):
            oracle.to_dense(orc)
    # a neighbor that is not an integer is refused, not truncated
    for bad in (0.7, 1.0, np.float64(0.0), "0"):
        orc = oracle.SparseOracle(1, 1, lambda x, i, y=bad: (y, 1.0))
        with pytest.raises(OracleError, match="vertex 0 in slot 1"):
            orc.query(0, 1)
        with pytest.raises(OracleError, match="not an integer"):
            orc.peek(0, 1)
    for good in (np.int64(1), np.uint8(1)):
        orc = oracle.SparseOracle(1, 1, lambda x, i, y=good: (y, 1.0))
        assert orc.query(0, 1) == (1, 1 + 0j)
        assert type(orc.peek(0, 1)[0]) is int


def test_query_contract_types_messages_and_counts():
    # an answer that is not yet (int, complex) comes back converted
    for answer in ((np.int64(1), 0.5), (True, 0.5j), (1, 0.5)):
        orc = oracle.SparseOracle(1, 1, lambda x, i, a=answer: a)
        y, v = orc.query(0, 1)
        assert (type(y), type(v), y) == (int, complex, 1)
        assert v == complex(answer[1])
    # a non-integer neighbor is refused after the query was counted
    orc = oracle.SparseOracle(1, 1, lambda x, i: (0.7, 1))
    with pytest.raises(OracleError) as err:
        orc.query(0, 1)
    assert str(err.value) == (
        "neighbor 0.7 of vertex 0 in slot 1 is not an integer")
    assert orc.counter.count == 1
    # a vertex or slot out of range is refused before counting
    for x, i, msg in ((2, 1, "vertex 2 out of range for n=1"),
                      (-1, 1, "vertex -1 out of range for n=1"),
                      (0, 0, "slot 0 out of range for d=1"),
                      (0, 2, "slot 2 out of range for d=1"),
                      (0, 0.5, "slot 0.5 out of range for d=1")):
        with pytest.raises(OracleError) as err:
            orc.query(x, i)
        assert str(err.value) == msg
    assert orc.counter.count == 1
    # a neighbor out of range is refused after counting
    for bad in (-1, 2):
        orc = oracle.SparseOracle(1, 1, lambda x, i, y=bad: (y, 1j))
        with pytest.raises(OracleError) as err:
            orc.query(0, 1)
        assert str(err.value) == (
            f"neighbor {bad} of vertex 0 out of range for n=1")
        assert orc.counter.count == 1


def test_to_dense_matches_entries():
    orc = two_bit_example()
    H = oracle.to_dense(orc)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = 1.0 + 0.5j
    expected[1, 0] = 1.0 - 0.5j
    expected[1, 2] = -0.25
    expected[2, 1] = -0.25
    expected[3, 3] = 0.75
    assert np.array_equal(H, expected)


def test_entry_list_validation():
    with pytest.raises(OracleError):
        EntryList(2, 2, ((1, 0, 1.0),))          # stored with x > y
    with pytest.raises(OracleError):
        EntryList(2, 2, ((0, 1, 1.0), (0, 1, 1.0)))  # duplicate pair
    with pytest.raises(OracleError):
        EntryList(2, 2, ((0, 0, 1.0j),))         # imaginary diagonal
    with pytest.raises(OracleError, match="must be real"):
        # |v - conj(v)| = 1.6e-12, past the tolerance entries_from_slots
        # measures a read's pairs against
        EntryList(2, 2, ((0, 0, 1 + 8e-13j),))
    with pytest.raises(OracleError):
        EntryList(2, 2, ((0, 1, 0.0),))          # explicit zero
    with pytest.raises(OracleError):
        EntryList(2, 2, ((0, 7, 1.0),))          # out of range


def test_degree_overflow_rejected():
    el = EntryList(2, 1, ((0, 1, 1.0), (0, 2, 1.0)))
    with pytest.raises(OracleError):
        oracle.from_entry_list(el)


def test_non_hermitian_pair_rejected():
    with pytest.raises(OracleError):
        oracle.from_columns(1, 1, {0: [(1, 1.0 + 0j)], 1: [(0, 1.0 + 0.5j)]})
    with pytest.raises(OracleError):
        oracle.from_columns(1, 1, {0: [(1, 1.0 + 0j)]})  # missing mirror
    with pytest.raises(OracleError, match="must be real"):
        oracle.from_columns(1, 1, {0: [(0, 1 + 8e-13j)]})  # its own mirror


def test_text_round_trip_is_exact():
    el = EntryList(3, 2, (
        (0, 5, 1.0 / 3.0 - 2.0e-17j),
        (1, 1, -0.1),
        (2, 6, 0.123456789012345678 + 1e300j),
    ))
    text = oracle.entry_list_to_text(el)
    back = oracle.text_to_entry_list(text)
    assert back == el


def test_text_parsing_comments_and_errors():
    text = "# comment\n\n2 2\n0 1 1.0 0.0  # trailing note\n"
    el = oracle.text_to_entry_list(text)
    assert el.entries == ((0, 1, 1.0 + 0j),)
    with pytest.raises(OracleError):
        oracle.text_to_entry_list("0 1 1.0 0.0\n")  # 4 fields where header goes
    with pytest.raises(OracleError):
        oracle.text_to_entry_list("2 2\n0 1 abc 0\n")
    with pytest.raises(OracleError):
        oracle.text_to_entry_list("# only comments\n")


def test_text_accepts_either_orientation():
    el = oracle.text_to_entry_list("2 2\n2 1 0.5 0.25\n")
    assert el.entries == ((1, 2, 0.5 - 0.25j),)


def test_file_round_trip(tmp_path):
    orc = oracle.random_sparse(4, 3, seed=11)
    el = oracle.to_entry_list(orc)
    path = tmp_path / "h.txt"
    oracle.save_entry_list(el, str(path))
    assert oracle.load_entry_list(str(path)) == el
    # and the reconstructed oracle agrees entrywise
    H1 = oracle.to_dense(orc)
    H2 = oracle.to_dense(oracle.from_entry_list(el))
    assert np.array_equal(H1, H2)


def test_random_sparse_deterministic_and_bounded():
    a = oracle.to_entry_list(oracle.random_sparse(5, 3, seed=42))
    b = oracle.to_entry_list(oracle.random_sparse(5, 3, seed=42))
    c = oracle.to_entry_list(oracle.random_sparse(5, 3, seed=43))
    assert a == b
    assert a != c
    H = oracle.to_dense(oracle.from_entry_list(a))
    assert np.abs(H - H.conj().T).max() == 0.0
    assert int((H != 0).sum(axis=1).max()) <= 3


def test_negative_seeds_are_refused():
    with pytest.raises(OracleError, match="nonnegative"):
        oracle.random_sparse(3, 2, seed=-1)
    with pytest.raises(OracleError, match="nonnegative"):
        oracle.shuffled_columns(oracle.random_sparse(3, 2, seed=1), seed=-1)


def test_random_sparse_refuses_a_dimension_past_the_largest_index():
    # refused before the per-vertex lists are allocated
    for n in (63, 70):
        with pytest.raises(OracleError, match=f"2\\^{n} exceeds"):
            oracle.random_sparse(n, 1, seed=0)
    with pytest.raises(OracleError, match="at least one vertex bit"):
        oracle.random_sparse(-1, 1, seed=0)


def test_random_sparse_norm_target():
    orc = oracle.random_sparse(4, 2, seed=3, norm_target=1.0)
    H = oracle.to_dense(orc)
    assert numerics.spectral_norm(H) == pytest.approx(1.0, abs=1e-12)
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(OracleError, match="finite and positive"):
            oracle.random_sparse(4, 2, seed=3, norm_target=bad)


def test_queries_stable_across_scans():
    orc = oracle.random_sparse(4, 3, seed=9)
    scan1 = [orc.query(x, i) for x in range(16) for i in (1, 2, 3)]
    scan2 = [orc.query(x, i) for x in range(16) for i in (1, 2, 3)]
    assert scan1 == scan2
    assert orc.counter.count == 2 * 16 * 3


def test_shuffled_columns_preserve_matrix():
    orc = oracle.random_sparse(4, 3, seed=5)
    shuf = oracle.shuffled_columns(orc, seed=1)
    assert np.array_equal(oracle.to_dense(orc), oracle.to_dense(shuf))
    # stable across calls
    row1 = [shuf.peek(7, i) for i in (1, 2, 3)]
    row2 = [shuf.peek(7, i) for i in (1, 2, 3)]
    assert row1 == row2


def test_explicit_column_order_is_respected():
    cols = {0: [(2, 1.0 + 0j), (1, 2.0 + 0j)],
            1: [(0, 2.0 + 0j)],
            2: [(0, 1.0 + 0j)]}
    orc = oracle.from_columns(2, 2, cols, sort=False)
    assert orc.query(0, 1) == (2, 1.0 + 0j)
    assert orc.query(0, 2) == (1, 2.0 + 0j)
    sorted_orc = oracle.from_columns(2, 2, cols, sort=True)
    assert sorted_orc.query(0, 1) == (1, 2.0 + 0j)


# (rows in slot order, the message to_dense gave before it used read_entries)
BAD_ORACLES = {
    "non-Hermitian": ({0: [(1, 1.0)], 1: [(0, 1.0 + 0.5j)]},
                      "oracle is not Hermitian: max deviation 5.000e-01"),
    "missing mirror": ({0: [(1, 0.25)]},
                       "oracle is not Hermitian: max deviation 2.500e-01"),
    "imaginary diagonal": ({2: [(2, 1.0 + 1e-9j)]},
                           "oracle is not Hermitian: max deviation 2.000e-09"),
    "padded then nonzero": ({2: [(2, 0.0), (3, 1.0)], 3: [(2, 1.0)]},
                            "row 2: nonzero slot 2 after padding"),
    "duplicate neighbour": ({0: [(1, 1.0), (1, 1.0)], 1: [(0, 1.0)]},
                            "row 0: duplicate neighbor 1"),
    "explicit zero": ({3: [(1, 0.0)]}, "row 3: explicit zero at slot 1"),
    # the first bad slot in row-major order decides the message
    "first bad slot wins": ({1: [(3, 0.0)], 2: [(0, 1.0), (0, 1.0)]},
                            "row 1: explicit zero at slot 1"),
    "padding before a repeat": ({1: [(1, 0.0), (1, 2.0)]},
                                "row 1: nonzero slot 2 after padding"),
}


def raw_oracle(rows, n=2, d=2):
    # no validation on the way in, unlike from_columns
    def fn(x, i):
        row = rows.get(x, [])
        return row[i - 1] if i <= len(row) else (x, 0j)
    return oracle.SparseOracle(n, d, fn)


@pytest.mark.parametrize("name", sorted(BAD_ORACLES))
def test_read_entries_structural_checks(name):
    rows, message = BAD_ORACLES[name]
    for extract in (oracle.read_entries, oracle.to_dense, oracle.to_entry_list):
        with pytest.raises(OracleError) as exc:
            extract(raw_oracle(rows))
        assert str(exc.value) == message
    with pytest.raises(OracleError, match=r"non-finite entry at \(0, 1\)"):
        oracle.read_entries(raw_oracle({0: [(1, np.nan)], 1: [(0, np.nan)]}))


@pytest.mark.parametrize("name", sorted(BAD_ORACLES))
def test_malformed_oracles_fail_simulate_and_decompose_as_they_read(
        name, monkeypatch, capsys):
    # the read is checked once, as read_entries checks it, before any table
    # is built from it, with verification on or off
    rows, message = BAD_ORACLES[name]
    with pytest.raises(OracleError) as got:
        coloring.piece_tables(raw_oracle(rows))
    assert str(got.value) == message
    for verify in (True, False):
        with pytest.raises(OracleError) as got:
            cli.simulate_pipeline(raw_oracle(rows), 1.0, 1e-2, verify=verify)
        assert str(got.value) == message
    monkeypatch.setattr(cli, "_load_oracle", lambda *_: raw_oracle(rows))
    for extra in ([], ["--no-verify"]):
        assert cli.main(["decompose", "--gen", "random:n=2,d=2", *extra]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_read_entries_runs_above_the_dense_cap(monkeypatch):
    orc = oracle.random_sparse(5, 3, seed=8)
    rows, cols, vals = oracle.read_entries(orc)
    H = oracle.to_dense(orc)
    assert np.array_equal(rows, np.nonzero(H)[0])
    dense = np.zeros_like(H)
    dense[rows, cols] = vals
    assert np.array_equal(dense, H)
    el = oracle.to_entry_list(orc)
    monkeypatch.setenv("HAMSIM_DENSE_CAP", "16")
    with pytest.raises(OracleError, match="exceeds dense cap"):
        oracle.to_dense(orc)
    again = oracle.read_entries(orc)
    assert all(np.array_equal(a, b) for a, b in zip(again, (rows, cols, vals)))
    assert oracle.to_entry_list(orc) == el
    assert orc.counter.count == 0
