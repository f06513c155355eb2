"""Deterministic edge coloring: d-sparse Hamiltonians into 1-sparse pieces.

The graph of nonzero entries is covered by pieces labeled (i, j, nu): slot i
at the lower-numbered endpoint, slot j at the higher one, and a short tag nu
that separates adjacent edges sharing the same (i, j).  The tag comes from a
halving iteration (deterministic coin tossing) on the integer labels of the
ascending chain of (i, j)-edges from the vertex: every element is replaced
by (its bit at the first position, from the left, differing from its
successor; that position), both read off the XOR of the two; the last
element uses its first bit and position zero.  Each round shrinks the label
width roughly logarithmically, and after z_n rounds (z_18 = 4, and 4 even
at 64-bit vertex labels) at most six values remain, giving at most 6 d^2
pieces.  Only the finished tag is written out as a bit string.

Chains only ever need z_n + 2 elements, so one piece lookup touches the
base oracle at most 2(z_n + 2) times.  colored_query is that per-lookup
algorithm, the paper's piece oracle; piece_tables computes every piece at
once from one read of each slot, running the same rounds on whole columns
of chains, and colored_query is the reference it is verified against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .config import ColoringError, dense_cap
from .one_sparse import OneSparseTable
from .oracle import (QueryCounter, SparseOracle, entries_from_slots,
                     read_entries, read_slots)

# The complete value set after the final round whenever z_n >= 1: one bit
# plus a two-bit position that never reaches 3.
FINAL_ALPHABET = ("000", "001", "010", "100", "101", "110")

# Worked reference traces on 18-bit vertices (z = 4).  MAIN walks a chain of
# six vertices; SHIFTED starts one vertex lower on the same chain, so its
# view is the same chain shifted and truncated.  Each row pairs a vertex
# label with its values after rounds 1..4; the first row's last value is
# the edge tag.  The two traces end in different tags even though they
# share five vertices.
REFERENCE_TRACE_MAIN = (
    ("001011100110011010", "000001", "0100", "000", "000"),
    ("010110101010011011", "000010", "1100", "100", "100"),
    ("011011101110101101", "000000", "0001", "000", "000"),
    ("101011101011110100", "010001", "1001", "100", "100"),
    ("101011101011110101", "000001", "0000", "000", "000"),
    ("111000010110011010", "100000", "1000", "100", "100"),
)
REFERENCE_TRACE_SHIFTED = (
    ("000010010110111001", "000010", "1100", "100", "100"),
    ("001011100110011010", "000001", "0100", "000", "000"),
    ("010110101010011011", "000010", "1100", "100", "001"),
    ("011011101110101101", "000000", "0001", "111", "100"),
    ("101011101011110100", "010001", "0000", "000", "000"),
    ("101011101011110101", "100000", "1000", "100", "100"),
)


def iterate_count(n: int) -> int:
    """Rounds z_n needed to shrink 2^n possible labels to at most 6.

    One round maps a count of l possible values to 2*ceil(log2(l)).  The
    first round is evaluated as 2n directly so huge n costs nothing.  Every
    piece lookup asks for it, so it is cached per n once n passes the check.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ColoringError(f"need a positive vertex width, got {n}")
    return _rounds(n)


@functools.cache
def _rounds(n: int) -> int:
    if n <= 2:
        return 0
    count = 1
    l = 2 * n
    while l > 6:
        l = 2 * (l - 1).bit_length()
        count += 1
    return count


def vertex_bits(x: int, n: int) -> str:
    """n-bit big-endian string for a vertex number."""
    if not 0 <= x < (1 << n):
        raise ColoringError(f"vertex {x} out of range for n={n}")
    return format(x, f"0{n}b")


def final_alphabet(n: int) -> tuple[str, ...]:
    """All values nu can take for n-bit vertices, in sorted order."""
    if iterate_count(n) == 0:
        return tuple(format(v, f"0{n}b") for v in range(1 << n))
    return FINAL_ALPHABET


def coin_toss_level(values: tuple[int, ...],
                    width: int) -> tuple[tuple[int, ...], int]:
    """One halving round on width-bit labels; returns (values, new width).

    Each element becomes its bit at the first (leftmost, counted from 0)
    position where it differs from its successor, followed by that position
    in binary; the final element takes its own first bit and position zero.
    Consecutive elements must differ, and every round keeps them distinct.
    Width-1 sequences are fixed points.
    """
    if not values:
        raise ColoringError("empty sequence")
    if width < 1 or min(values) < 0 or max(values) >> width:
        raise ColoringError(f"elements {values} do not fit width {width}")
    pw = (width - 1).bit_length()
    out = []
    for v, succ in zip(values, values[1:]):
        # top: the highest differing bit, counted from 1 at the right
        top = (v ^ succ).bit_length()
        if not top:
            raise ColoringError(f"consecutive elements equal: {v}")
        out.append((v >> (top - 1) & 1) << pw | (width - top))
    out.append((values[-1] >> (width - 1)) << pw)
    return tuple(out), 1 + pw


def halving_trace(values: tuple[str, ...] | list[str],
                  rounds: int) -> list[tuple[str, ...]]:
    """Bit strings at every level 0..rounds of the halving iteration."""
    if not values:
        raise ColoringError("empty sequence")
    width = len(values[0])
    for v in values:
        if len(v) != width or set(v) - {"0", "1"}:
            raise ColoringError(f"malformed element {v!r} at width {width}")
    ints = tuple(int(v, 2) for v in values)
    out = [tuple(values)]
    for _ in range(rounds):
        ints, width = coin_toss_level(ints, width)
        out.append(tuple(vertex_bits(v, width) for v in ints))
    return out


# Memo of base-oracle answers by (vertex, slot).  One cache shared by a
# whole run makes the base-query count the number of distinct probes; a
# fresh one per lookup realizes the worst-case per-call bound instead.
QueryCache = dict[tuple[int, int], tuple[int, complex]]


def _query(oracle: SparseOracle, x: int, i: int,
           cache: QueryCache) -> tuple[int, complex]:
    key = (x, i)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = oracle.query(x, i)
    return hit


def build_chain(oracle: SparseOracle, x: int, i: int, j: int,
                cache: QueryCache | None = None) -> list[int]:
    """Ascending chain of (i, j)-edges from x, truncated at z_n + 2 elements.

    Requires a genuine ascending edge at x: the slot-i neighbor y of x is
    above x and the slot-j neighbor of y is x again.  The chain extends the
    same way from y and stops at the first break or at the length cap.
    """
    cache = cache if cache is not None else {}
    limit = iterate_count(oracle.n) + 2
    y, _ = _query(oracle, x, i, cache)
    if y <= x:
        raise ColoringError(f"no ascending slot-{i} edge at vertex {x}")
    back, _ = _query(oracle, y, j, cache)
    if back != x:
        raise ColoringError(
            f"edge ({x}, {y}) is not slot-(i={i}, j={j}) consistent")
    chain = [x, y]
    while len(chain) < limit:
        nxt, _ = _query(oracle, y, i, cache)
        if nxt <= y:
            break
        b, _ = _query(oracle, nxt, j, cache)
        if b != y:
            break
        chain.append(nxt)
        y = nxt
    return chain


# Memo of finished tags by (chain, n), for one verify_coloring call: the
# halving rounds are a function of the chain's values alone, and a cold
# replay meets each chain once per tag and from both of its endpoints.
TagMemo = dict[tuple[tuple[int, ...], int], str]


def upsilon(oracle: SparseOracle, x: int, i: int, j: int,
            cache: QueryCache | None = None,
            tags: TagMemo | None = None) -> str:
    """Tag of the (i, j)-edge whose lower endpoint is x.

    For n <= 2 the raw vertex label already fits the alphabet budget and is
    used as-is (no queries).  Otherwise the chain from x is read through
    the oracle and shrunk through z_n halving rounds, and the first
    element's final value is the tag.  The chain is always read; a tags
    memo only spares running the rounds again on a chain it has seen.
    """
    n = oracle.n
    z = iterate_count(n)
    if z == 0:
        return vertex_bits(x, n)
    chain = tuple(build_chain(oracle, x, i, j, cache))
    if tags is not None:
        tag = tags.get((chain, n))
        if tag is not None:
            return tag
    values, width = chain, n
    for _ in range(z):
        values, width = coin_toss_level(values, width)
    tag = vertex_bits(values[0], width)
    if tags is not None:
        tags[chain, n] = tag
    return tag


@dataclass(frozen=True)
class EdgeLabel:
    """Piece identity (i, j, nu)."""

    i: int
    j: int
    nu: str

    def __post_init__(self) -> None:
        if self.i < 1 or self.j < 1:
            raise ColoringError(f"slots must be >= 1, got ({self.i}, {self.j})")
        if not self.nu or set(self.nu) - {"0", "1"}:
            raise ColoringError(f"malformed tag {self.nu!r}")


def enumerate_labels(d: int, n: int) -> tuple[EdgeLabel, ...]:
    """All piece labels for degree d on n bits: at most 6 d^2 of them."""
    if d < 1:
        raise ColoringError(f"degree must be >= 1, got {d}")
    alphabet = final_alphabet(n)
    return tuple(EdgeLabel(i, j, nu)
                 for i in range(1, d + 1)
                 for j in range(1, d + 1)
                 for nu in alphabet)


def colored_query(oracle: SparseOracle, x: int, label: EdgeLabel,
                  cache: QueryCache | None = None,
                  tags: TagMemo | None = None) -> tuple[int, complex]:
    """Row x of the 1-sparse piece named by label: (y, value) or (x, 0).

    Three claims are tested in order: the diagonal of x sits at slot i = j
    with the all-zeros tag; x is the lower endpoint of an (i, j)-edge whose
    tag matches; or x is the upper endpoint of such an edge (the tag is then
    computed at the lower endpoint).  Tag distinctness of adjacent edges
    makes the claims mutually exclusive.  With a fresh cache this costs at
    most 2(z_n + 2) base queries, each a counted oracle.query with its
    checks; the cache only spares asking one (vertex, slot) twice.  A tags
    memo (see upsilon) spares halving rounds, never a query.
    """
    i, j, nu = label.i, label.j, label.nu
    if cache is None:
        yi, vi = hit = oracle.query(x, i)
        cache = {(x, i): hit}
    else:
        yi, vi = _query(oracle, x, i, cache)
    if yi == x and vi != 0 and i == j and nu == "0" * len(nu):
        return (x, vi)
    if yi > x:
        back, _ = _query(oracle, yi, j, cache)
        if back == x and upsilon(oracle, x, i, j, cache, tags) == nu:
            return (yi, vi)
    yj, vj = _query(oracle, x, j, cache)
    if yj < x:
        fwd, _ = _query(oracle, yj, i, cache)
        if fwd == x and upsilon(oracle, yj, i, j, cache, tags) == nu:
            return (yj, vj)
    return (x, 0j)


class ColoredOracle:
    """1-sparse piece of a d-sparse oracle, addressed like any other piece.

    column(x) is the single-probe interface shared with 1-sparse
    SparseOracles; its own counter tallies piece-level probes while the
    base oracle's counter keeps tallying the underlying lookups.  Both
    count in the probing thread's own tally, with no lock per probe.  A
    shared cache may be attached so a whole decomposition reuses base
    queries, and a tags memo so that one verification reuses halving rounds.
    """

    def __init__(self, base: SparseOracle, label: EdgeLabel,
                 cache: QueryCache | None = None,
                 tags: TagMemo | None = None) -> None:
        self.base = base
        self.label = label
        self.cache = cache
        self.tags = tags
        self.counter = QueryCounter()

    @property
    def dim(self) -> int:
        return self.base.dim

    def column(self, x: int) -> tuple[int, complex]:
        self.counter._tally.cell[0] += 1      # increment(), inlined
        return colored_query(self.base, x, self.label, self.cache, self.tags)


def decompose(oracle: SparseOracle,
              cache: QueryCache | None = None) -> list[ColoredOracle]:
    """All pieces of the coloring, sharing one query cache."""
    cache = cache if cache is not None else {}
    return [ColoredOracle(oracle, label, cache)
            for label in enumerate_labels(oracle.d, oracle.n)]


def _chain_tags(lo: np.ndarray, up: np.ndarray, asc: np.ndarray, n: int,
                z: int) -> np.ndarray:
    """upsilon for every lower endpoint in lo at once, as integers.

    up[x] is the slot-i neighbor of x and asc[x] says whether it closes an
    ascending (i, j)-edge.  Row k of the chain matrix is the chain from
    lo[k] as build_chain gives it, padded past its end by repeating the
    last element; each round is coin_toss_level on every row, the end rule
    taken at each row's own last element.  Bit lengths come from np.frexp,
    exact below 2^53.  The final width is the tags' width in final_alphabet:
    n bits when z = 0, else 3.
    """
    chain = np.empty((lo.size, z + 2), dtype=np.int64)
    chain[:, 0] = lo
    last = np.zeros(lo.size, dtype=np.int64)   # index of the last element
    cur, alive = lo, np.ones(lo.size, dtype=bool)
    for k in range(1, z + 2):
        alive &= asc[cur]
        cur = np.where(alive, up[cur], cur)
        chain[:, k] = cur
        last += alive
    at_end = np.arange(z + 2) == last[:, None]
    width = n
    for _ in range(z):
        pw = (width - 1).bit_length()
        succ = np.concatenate([chain[:, 1:], chain[:, -1:]], axis=1)
        # top: the highest differing bit, counted from 1 at the right; the
        # padding compares equal, and its value is never used
        top = np.maximum(np.frexp((chain ^ succ).astype(np.float64))[1], 1)
        chain = np.where(at_end, (chain >> (width - 1)) << pw,
                         ((chain >> (top - 1)) & 1) << pw | (width - top))
        width = 1 + pw
    return chain[:, 0]


def piece_tables(oracle: SparseOracle) -> list[OneSparseTable]:
    """tables_from_slots of one counted read of every (x, i) slot, dim * d
    base queries in all, checked by entries_from_slots before any table is
    built."""
    slots = read_slots(oracle, oracle.query)
    entries_from_slots(*slots)
    return tables_from_slots(oracle.n, *slots)


def tables_from_slots(n: int, nbr: np.ndarray,
                      val: np.ndarray) -> list[OneSparseTable]:
    """Every piece of the coloring as a table, in enumerate_labels order.

    nbr and val are read_slots' arrays of an oracle on n bits.  Each piece
    is what extract_table would scan through colored_query: the diagonal
    of x in piece (i, i, zeros) when slot i of x is x itself, and an
    ascending (i, j)-edge (x, y) in piece (i, j, upsilon(x, i, j)), stored
    as (x, y, H[x, y]) in ascending x.  Empty pieces are included.  The
    read must have passed entries_from_slots, which is not repeated here:
    padding last, no duplicate neighbors or explicit zeros, finite values,
    real diagonals and Hermitian pairs.
    """
    dim, d = nbr.shape
    z = iterate_count(n)
    xs = np.arange(dim)
    no_diag = (np.zeros(0, np.int64), np.zeros(0))
    tables = []
    for i in range(d):
        up = nbr[:, i]
        diag = np.flatnonzero((up == xs) & (val[:, i] != 0))
        diag_v = val[diag, i]
        for j in range(d):
            asc = (up > xs) & (nbr[up, j] == xs)
            lo = np.flatnonzero(asc)
            hi = up[lo]
            amp = val[lo, i]
            tags = _chain_tags(lo, up, asc, n, z)
            for nu in final_alphabet(n):
                on = tags == int(nu, 2)
                diag_idx, diag_h = no_diag
                if i == j and nu == "0" * len(nu):
                    diag_idx, diag_h = diag, diag_v.real
                tables.append(OneSparseTable(dim, diag_idx, diag_h,
                                             lo[on], hi[on], amp[on]))
    return tables


@dataclass(frozen=True)
class ColoringReport:
    n: int
    d: int
    z: int
    label_count: int
    nonzero_pieces: int
    max_queries_per_call: int
    query_bound: int
    lookups_checked: int
    ok: bool
    failures: tuple[str, ...] = field(default_factory=tuple)


# Above the dense cap, verify_coloring checks this many (label, x) lookups,
# drawn without replacement with this seed.
VERIFY_SAMPLE = 4096
VERIFY_SEED = 0


def verify_coloring(oracle: SparseOracle,
                    tables: list[OneSparseTable] | None = None,
                    entries: tuple[np.ndarray, np.ndarray, np.ndarray]
                    | None = None) -> ColoringReport:
    """Check piece tables against the entries and the piece lookups.

    tables and entries default to piece_tables and read_entries of the
    oracle; a run that read it once passes what it read.  No dense matrix
    is built.  The tables must be pairwise disjoint and their union must
    equal the entries exactly.  Each checked lookup, ColoredOracle(oracle,
    label).column(x) with a cold cache, must give the table's answer at x
    within the 2(z_n + 2) base-query budget: every (label, x) inside the
    dense cap, a fixed-seed sample of VERIFY_SAMPLE above it.  A lookup's
    spend is read from the calling thread's own tally of the oracle's
    counter, so queries other threads make meanwhile are not charged to it.
    Every lookup reads its chains through the oracle and spends its queries
    in full; the halving rounds run once per distinct chain in each call,
    through a tags memo that is emptied when the call ends, by return or by
    exception.
    """
    dim = oracle.dim
    z = iterate_count(oracle.n)
    bound = 2 * (z + 2)
    labels = enumerate_labels(oracle.d, oracle.n)
    if tables is None:
        tables = piece_tables(oracle)
    if entries is None:
        entries = read_entries(oracle)
    failures: list[str] = []

    total = len(labels) * dim
    # read the cap first, so a malformed HAMSIM_DENSE_CAP fails every run
    if dim <= dense_cap() or total <= VERIFY_SAMPLE:
        picks = np.arange(total)
    else:
        picks = np.sort(np.random.default_rng(VERIFY_SEED).choice(
            total, size=VERIFY_SAMPLE, replace=False))
    # picks are sorted, so each label's share is one slice
    ends = np.searchsorted(picks, np.arange(len(labels) + 1) * dim)
    # this thread's own tally: another thread's queries are not this spend
    mine = oracle.counter.thread_tally()
    max_calls = 0
    tags: TagMemo = {}
    try:
        for g, label in enumerate(labels):
            xs = picks[ends[g]:ends[g + 1]] - g * dim
            if not xs.size:
                continue
            at, to, val = (a.tolist() for a in tables[g].entries())
            want = dict(zip(at, zip(to, val)))
            piece = ColoredOracle(oracle, label, tags=tags)
            wrong: list[int] = []
            for x in xs.tolist():
                # the cell, not the locked total: this runs twice per lookup
                before = mine[0]
                got = piece.column(x)
                used = mine[0] - before
                if used > max_calls:
                    max_calls = used
                if used > bound:
                    failures.append(f"label {label}: lookup at {x} used "
                                    f"{used} > {bound} queries")
                if got != want.get(x, (x, 0j)):
                    wrong.append(x)
            if wrong:
                failures.append(f"label {label}: lookup at {wrong[0]} "
                                f"disagrees with the table ({len(wrong)} in all)")
    finally:
        tags.clear()

    def by_key(rows, cols, vals):
        keys = rows * dim + cols
        order = np.argsort(keys, kind="stable")
        return keys[order], vals[order]

    keys, vals = by_key(*(np.concatenate(parts)
                          for parts in zip(*(t.entries() for t in tables))))
    if np.any(keys[1:] == keys[:-1]):
        failures.append("pieces overlap: some entry claimed more than once")
    e_keys, e_vals = by_key(*entries)
    if not (np.array_equal(keys, e_keys) and np.array_equal(vals, e_vals)):
        failures.append("pieces do not sum back to the Hamiltonian")

    return ColoringReport(
        n=oracle.n, d=oracle.d, z=z, label_count=len(labels),
        nonzero_pieces=sum(1 for t in tables if t.entry_count),
        max_queries_per_call=max_calls, query_bound=bound,
        lookups_checked=int(picks.size), ok=not failures,
        failures=tuple(failures))
