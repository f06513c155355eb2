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
base oracle at most 2(z_n + 2) times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ColoringError, dense_cap
from .oracle import QueryCounter, SparseOracle, to_dense

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
    first round is evaluated as 2n directly so huge n costs nothing.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ColoringError(f"need a positive vertex width, got {n}")
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
    if width < 1 or not all(0 <= v < 1 << width for v in values):
        raise ColoringError(f"elements {values} do not fit width {width}")
    pw = (width - 1).bit_length()
    out = []
    for v, succ in zip(values, values[1:]):
        if v == succ:
            raise ColoringError(f"consecutive elements equal: {v}")
        # top: the highest differing bit, counted from 1 at the right
        top = (v ^ succ).bit_length()
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


class QueryCache:
    """Shared memo for base-oracle lookups and finished tags.

    Attaching one cache to a whole run makes the total base-query count
    collapse to the number of distinct (vertex, slot) probes; a fresh cache
    per lookup realizes the worst-case per-call bound instead.
    """

    def __init__(self) -> None:
        self.f: dict[tuple[int, int], tuple[int, complex]] = {}
        self.tags: dict[tuple[int, int, int], str] = {}


def _query(oracle: SparseOracle, x: int, i: int,
           cache: QueryCache) -> tuple[int, complex]:
    key = (x, i)
    hit = cache.f.get(key)
    if hit is None:
        hit = oracle.query(x, i)
        cache.f[key] = hit
    return hit


def build_chain(oracle: SparseOracle, x: int, i: int, j: int,
                cache: QueryCache | None = None) -> list[int]:
    """Ascending chain of (i, j)-edges from x, truncated at z_n + 2 elements.

    Requires a genuine ascending edge at x: the slot-i neighbor y of x is
    above x and the slot-j neighbor of y is x again.  The chain extends the
    same way from y and stops at the first break or at the length cap.
    """
    cache = cache if cache is not None else QueryCache()
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
        nxt, _ = _query(oracle, chain[-1], i, cache)
        if nxt <= chain[-1]:
            break
        b, _ = _query(oracle, nxt, j, cache)
        if b != chain[-1]:
            break
        chain.append(nxt)
    return chain


def upsilon(oracle: SparseOracle, x: int, i: int, j: int,
            cache: QueryCache | None = None) -> str:
    """Tag of the (i, j)-edge whose lower endpoint is x.

    For n <= 2 the raw vertex label already fits the alphabet budget and is
    used as-is (no queries).  Otherwise the chain from x is shrunk through
    z_n halving rounds and the first element's final value is the tag.
    """
    z = iterate_count(oracle.n)
    if z == 0:
        return vertex_bits(x, oracle.n)
    cache = cache if cache is not None else QueryCache()
    key = (x, i, j)
    hit = cache.tags.get(key)
    if hit is not None:
        return hit
    values, width = tuple(build_chain(oracle, x, i, j, cache)), oracle.n
    for _ in range(z):
        values, width = coin_toss_level(values, width)
    tag = vertex_bits(values[0], width)
    cache.tags[key] = tag
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
                  cache: QueryCache | None = None) -> tuple[int, complex]:
    """Row x of the 1-sparse piece named by label: (y, value) or (x, 0).

    Three claims are tested in order: the diagonal of x sits at slot i = j
    with the all-zeros tag; x is the lower endpoint of an (i, j)-edge whose
    tag matches; or x is the upper endpoint of such an edge (the tag is then
    computed at the lower endpoint).  Tag distinctness of adjacent edges
    makes the claims mutually exclusive.  With a fresh cache this costs at
    most 2(z_n + 2) base queries.
    """
    cache = cache if cache is not None else QueryCache()
    i, j, nu = label.i, label.j, label.nu
    zeros = "0" * len(nu)

    yi, vi = _query(oracle, x, i, cache)
    if yi == x and vi != 0 and i == j and nu == zeros:
        return (x, vi)
    if yi > x:
        back, _ = _query(oracle, yi, j, cache)
        if back == x and upsilon(oracle, x, i, j, cache) == nu:
            return (yi, vi)
    yj, vj = _query(oracle, x, j, cache)
    if yj < x:
        fwd, _ = _query(oracle, yj, i, cache)
        if fwd == x and upsilon(oracle, yj, i, j, cache) == nu:
            return (yj, vj)
    return (x, 0j)


class ColoredOracle:
    """1-sparse piece of a d-sparse oracle, addressed like any other piece.

    column(x) is the single-probe interface shared with 1-sparse
    SparseOracles; its own counter tallies piece-level probes while the
    base oracle's counter keeps tallying the underlying lookups.  A shared
    cache may be attached so a whole decomposition reuses base queries.
    """

    def __init__(self, base: SparseOracle, label: EdgeLabel,
                 cache: QueryCache | None = None) -> None:
        self.base = base
        self.label = label
        self.cache = cache
        self.counter = QueryCounter()

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def dim(self) -> int:
        return self.base.dim

    def column(self, x: int) -> tuple[int, complex]:
        self.counter.increment()
        return colored_query(self.base, x, self.label, self.cache)


def decompose(oracle: SparseOracle,
              cache: QueryCache | None = None) -> list[ColoredOracle]:
    """All pieces of the coloring, sharing one query cache."""
    cache = cache if cache is not None else QueryCache()
    return [ColoredOracle(oracle, label, cache)
            for label in enumerate_labels(oracle.d, oracle.n)]


@dataclass(frozen=True)
class ColoringReport:
    n: int
    d: int
    z: int
    label_count: int
    nonzero_pieces: int
    max_queries_per_call: int
    query_bound: int
    ok: bool
    failures: tuple[str, ...] = field(default_factory=tuple)


def verify_coloring(oracle: SparseOracle) -> ColoringReport:
    """Exhaustive check of the decomposition against the dense matrix.

    Every (label, x) lookup runs with a cold cache and must stay within the
    2(z_n + 2) base-query budget.  Its answers, one claim x -> (y, v) per
    row, must make every piece 1-sparse and exactly Hermitian, no entry may
    be claimed by two pieces, and the claims must sum back to the
    Hamiltonian exactly.  Dense work caps apply.
    """
    dim = oracle.dim
    if dim > dense_cap():
        raise ColoringError(
            f"verification needs dense extraction; {dim} exceeds cap {dense_cap()}")
    H = to_dense(oracle)
    z = iterate_count(oracle.n)
    bound = 2 * (z + 2)
    labels = enumerate_labels(oracle.d, oracle.n)
    failures: list[str] = []
    claimed: set[tuple[int, int]] = set()
    claims = 0
    total = np.zeros((dim, dim), dtype=complex)
    nonzero_pieces = 0
    max_calls = 0

    for label in labels:
        piece: dict[int, tuple[int, complex]] = {}   # x -> (y, v), v != 0
        for x in range(dim):
            before = oracle.counter.count
            y, v = colored_query(oracle, x, label)  # cold cache per call
            used = oracle.counter.count - before
            max_calls = max(max_calls, used)
            if used > bound:
                failures.append(
                    f"label {label}: lookup at {x} used {used} > {bound} queries")
            if v != 0:
                piece[x] = (y, v)
        if len({y for y, _ in piece.values()}) < len(piece):
            failures.append(f"label {label}: piece is not 1-sparse")
        if any(piece.get(y) != (x, v.conjugate())
               for x, (y, v) in piece.items()):
            failures.append(f"label {label}: piece is not Hermitian")
        if piece:
            nonzero_pieces += 1
        for x, (y, v) in piece.items():
            claimed.add((x, y))
            total[x, y] += v
        claims += len(piece)

    if len(claimed) < claims:
        failures.append("pieces overlap: some entry claimed more than once")
    if not np.array_equal(total, H):
        failures.append("pieces do not sum back to the Hamiltonian")

    return ColoringReport(
        n=oracle.n, d=oracle.d, z=z, label_count=len(labels),
        nonzero_pieces=nonzero_pieces, max_queries_per_call=max_calls,
        query_bound=bound, ok=not failures, failures=tuple(failures))
