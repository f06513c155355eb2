"""Exact evolution of 1-sparse Hermitian pieces.

A 1-sparse matrix touches each basis index x in one of three ways: not at
all, through a real diagonal entry, or by coupling x to a single partner.
e^{-iHt} therefore factors into scalar phases and 2x2 rotations, so each
piece is evolved exactly, and a full product-formula pass is a sequence of
such exact sweeps.  The module also covers the finite-precision side: how
many bits the per-pair phases need, and rounding piece tables onto that
grid; it merges pieces that share no state into fewer, larger ones; and
it bounds the nested commutators of the pieces, sparsely, for the
commutator-scaling slice count of suzuki.

Pieces are any objects exposing ``dim`` and ``column(x) -> (y, v)``:
1-sparse SparseOracles and ColoredOracles both qualify.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .config import OracleError, PlanError
from .numerics import require_state
from .oracle import SLOT_BYTES, check_memory, entries_from_slots
from .suzuki import ProductFormulaPlan, build_plan, check_slices, is_integer


@dataclass(frozen=True)
class OneSparseTable:
    """Flat description of one 1-sparse Hermitian piece.

    Diagonal entries are (index, h); couplings are (lo, hi, H[lo, hi]) with
    lo < hi.  Indices are pairwise disjoint across the whole table.
    """

    dim: int
    diag_idx: np.ndarray
    diag_h: np.ndarray
    pair_lo: np.ndarray
    pair_hi: np.ndarray
    pair_amp: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "diag_idx",
                           np.asarray(self.diag_idx, dtype=np.int64))
        object.__setattr__(self, "diag_h",
                           np.asarray(self.diag_h, dtype=np.float64))
        object.__setattr__(self, "pair_lo",
                           np.asarray(self.pair_lo, dtype=np.int64))
        object.__setattr__(self, "pair_hi",
                           np.asarray(self.pair_hi, dtype=np.int64))
        object.__setattr__(self, "pair_amp",
                           np.asarray(self.pair_amp, dtype=np.complex128))
        if self.dim < 1:
            raise OracleError(f"bad dimension {self.dim}")
        if self.diag_idx.shape != self.diag_h.shape or self.diag_idx.ndim != 1:
            raise OracleError("diagonal arrays disagree")
        if not (self.pair_lo.shape == self.pair_hi.shape == self.pair_amp.shape
                and self.pair_lo.ndim == 1):
            raise OracleError("pair arrays disagree")
        touched = np.concatenate([self.diag_idx, self.pair_lo, self.pair_hi])
        if touched.size:
            if touched.min() < 0 or touched.max() >= self.dim:
                raise OracleError("index out of range")
            if np.unique(touched).size != touched.size:
                raise OracleError("indices repeat: piece is not 1-sparse")
        if np.any(self.pair_lo >= self.pair_hi):
            raise OracleError("pairs must be stored as lo < hi")
        if np.any(self.pair_amp == 0) or not np.all(np.isfinite(self.diag_h)):
            raise OracleError("zero or non-finite table values")
        if not np.all(np.isfinite(self.pair_amp)):
            raise OracleError("zero or non-finite table values")

    @property
    def entry_count(self) -> int:
        return int(self.diag_idx.size + self.pair_lo.size)

    @property
    def norm(self) -> float:
        """Spectral norm, exactly: a 1-sparse piece is a direct sum of 1x1
        and off-diagonal 2x2 blocks, so it is the largest entry magnitude."""
        return float(max(np.max(np.abs(self.diag_h), initial=0.0),
                         np.max(np.abs(self.pair_amp), initial=0.0)))

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals) of every entry, mirror entries included."""
        cat = np.concatenate
        return (cat([self.diag_idx, self.pair_lo, self.pair_hi]),
                cat([self.diag_idx, self.pair_hi, self.pair_lo]),
                cat([self.diag_h.astype(np.complex128), self.pair_amp,
                     self.pair_amp.conj()]))


def extract_table(piece) -> OneSparseTable:
    """Read a piece into a table with exactly one probe per column.

    The columns are read once each, in ascending order, as the (dim, 1)
    slot arrays of a 1-sparse oracle, and checked as every row set, read
    or built, is checked, by entries_from_slots: (x, 0) for an empty
    column, no explicit zeros, finite values, Hermitian pairs and real
    diagonals within TOL.hermiticity, and every partner claiming its
    column back exactly.  A partner out of range is refused first.  A
    read whose columns physical memory cannot hold is refused before the
    first probe, by the rule read_slots applies to its slots.
    """
    dim = piece.dim
    check_memory("full read of a piece", dim, "columns", SLOT_BYTES)
    read = [piece.column(x) for x in range(dim)]
    for x, (y, _) in enumerate(read):
        if not 0 <= y < dim:
            raise OracleError(f"partner {y} of {x} out of range")
    ys = np.array([y for y, _ in read], dtype=np.int64).reshape(dim, 1)
    vs = np.array([v for _, v in read], dtype=np.complex128).reshape(dim, 1)
    rows, cols, vals = entries_from_slots(ys, vs)
    diag, pair = rows == cols, rows < cols
    return OneSparseTable(dim, rows[diag], vals[diag].real, rows[pair],
                          cols[pair], vals[pair])


def table_to_dense(table: OneSparseTable) -> np.ndarray:
    rows, cols, vals = table.entries()
    H = np.zeros((table.dim, table.dim), dtype=np.complex128)
    H[rows, cols] = vals
    return H


def random_one_sparse_table(dim: int, seed: int) -> OneSparseTable:
    """Random 1-sparse Hermitian piece of arbitrary dimension, the same
    for the same seed.

    A walk along a random order of the indices leaves each index it
    reaches empty (probability 0.15), makes it diagonal (0.25) or pairs
    it with the next index, which the walk then skips."""
    if dim < 1:
        raise OracleError(f"bad dimension {dim}")
    if seed < 0:
        raise OracleError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(dim).tolist()
    diag_idx: list[int] = []
    diag_h: list[float] = []
    pair_lo: list[int] = []
    pair_hi: list[int] = []
    pair_amp: list[complex] = []

    def nonzero(v: float) -> float:
        return v if v != 0 else 1.0

    # walk the permutation once: a pair takes the next element as partner,
    # and the last element, with none left, falls back to a diagonal
    i = 0
    while i < dim:
        x = order[i]
        i += 1
        roll = rng.random()
        if roll < 0.15:  # empty
            continue
        if roll < 0.15 + 0.25 or i == dim:  # diagonal
            diag_idx.append(x)
            diag_h.append(nonzero(float(rng.normal())))
            continue
        partner = order[i]
        i += 1
        a = complex(nonzero(float(rng.normal())), float(rng.normal()))
        pair_lo.append(min(x, partner))
        pair_hi.append(max(x, partner))
        pair_amp.append(a if x < partner else a.conjugate())
    return OneSparseTable(dim, diag_idx, diag_h, pair_lo, pair_hi, pair_amp)


def merge_disjoint(tables: list[OneSparseTable]
                   ) -> tuple[list[OneSparseTable], list[list[int]]]:
    """Merge pieces that share no state into fewer, larger pieces.

    Two 1-sparse Hermitian pieces whose touched states are disjoint sum to
    one: the union of two matchings on disjoint vertex sets is a matching.
    First fit: the pieces are taken largest first by entry count, ties in
    the order given, and each joins the first merged piece whose touched
    states it misses, or opens a new one.  A merged piece's norm is the
    largest of its constituents', and together the merged pieces hold each
    entry of the pieces once.

    Returns the merged pieces, largest first by entry count, ties in the
    order of their first constituents, and each one's constituents as
    indices into tables, in the order they joined.
    """
    if not tables:
        return [], []
    if any(t.dim != tables[0].dim for t in tables):
        raise PlanError("pieces act on different dimensions")
    # bit g % 64 of owner[s, g // 64] is set once merged piece g touches
    # state s; there are never more merged pieces than pieces
    owner = np.zeros((tables[0].dim, (len(tables) + 63) // 64), np.uint64)
    groups: list[list[int]] = []
    # stable: equal entry counts keep the order given
    for i in sorted(range(len(tables)), key=lambda i: -tables[i].entry_count):
        tb = tables[i]
        states = np.concatenate([tb.diag_idx, tb.pair_lo, tb.pair_hi])
        taken = int.from_bytes(np.bitwise_or.reduce(owner[states]).astype(
            "<u8").tobytes(), "little")
        # the lowest merged piece that touches none of states
        g = (~taken & (taken + 1)).bit_length() - 1
        if g == len(groups):
            groups.append([])
        groups[g].append(i)
        owner[states, g // 64] |= np.uint64(1 << g % 64)
    fields = ("diag_idx", "diag_h", "pair_lo", "pair_hi", "pair_amp")
    merged = [OneSparseTable(tables[g[0]].dim,
                             *(np.concatenate([getattr(tables[i], f)
                                               for i in g]) for f in fields))
              for g in groups]
    order = sorted(range(len(merged)), key=lambda g: -merged[g].entry_count)
    return [merged[g] for g in order], [groups[g] for g in order]


@dataclass(frozen=True)
class PackedPieces:
    """Concatenated piece tables in the flat layout the kernels consume."""

    dim: int
    count: int
    diag_ptr: np.ndarray
    diag_idx: np.ndarray
    diag_h: np.ndarray
    pair_ptr: np.ndarray
    pair_lo: np.ndarray
    pair_hi: np.ndarray
    pair_absa: np.ndarray
    pair_u: np.ndarray


def pack_tables(tables: list[OneSparseTable]) -> PackedPieces:
    if not tables:
        raise PlanError("nothing to pack")
    dim = tables[0].dim
    if any(t.dim != dim for t in tables):
        raise PlanError("pieces act on different dimensions")
    diag_ptr = np.zeros(len(tables) + 1, dtype=np.int64)
    pair_ptr = np.zeros(len(tables) + 1, dtype=np.int64)
    for t_i, table in enumerate(tables):
        diag_ptr[t_i + 1] = diag_ptr[t_i] + table.diag_idx.size
        pair_ptr[t_i + 1] = pair_ptr[t_i] + table.pair_lo.size
    cat = np.concatenate
    diag_idx = cat([t.diag_idx for t in tables])
    diag_h = cat([t.diag_h for t in tables])
    pair_lo = cat([t.pair_lo for t in tables])
    pair_hi = cat([t.pair_hi for t in tables])
    pair_amp = cat([t.pair_amp for t in tables])
    pair_absa = np.abs(pair_amp)
    # amplitudes are validated nonzero, so the phase is well defined
    pair_u = np.ones(pair_amp.shape, dtype=np.complex128)
    np.divide(pair_amp, pair_absa, out=pair_u, where=pair_absa > 0)
    return PackedPieces(dim, len(tables), diag_ptr, diag_idx, diag_h,
                        pair_ptr, pair_lo, pair_hi, pair_absa, pair_u)


def _plan_steps(plan: ProductFormulaPlan, t: float, r: int
                ) -> tuple[np.ndarray, np.ndarray]:
    step_term = np.fromiter((s.term - 1 for s in plan.steps),
                            dtype=np.int64, count=len(plan.steps))
    step_s = np.fromiter((s.fraction * t / r for s in plan.steps),
                         dtype=np.float64, count=len(plan.steps))
    return step_term, step_s


def exponential_total(r: int, steps: int) -> int:
    """The r x steps exponentials of r slices of a steps-long plan.

    Refused past 2^53, the largest count that a JSON reader holding numbers
    as doubles reads exactly; no run that long could finish anyway.
    """
    total = int(r) * steps
    if total > 2 ** 53:
        raise PlanError(
            f"{r} slices of a {steps}-step plan make {total} exponentials, "
            f"more than 2^53")
    return total


def apply_product_formula(packed: PackedPieces, plan: ProductFormulaPlan,
                          t: float, r: int, psi: np.ndarray) -> np.ndarray:
    """State after r repetitions of the plan with time slice t/r.

    Every sweep is exact per piece; the only approximation left is the
    product-formula splitting itself.
    """
    check_slices(r)
    if not math.isfinite(t):
        raise PlanError(f"evolution time must be finite, got {t}")
    if plan.m != packed.count:
        raise PlanError(
            f"plan covers {plan.m} pieces but {packed.count} are packed")
    psi = require_state(psi)
    if psi.size != packed.dim:
        raise PlanError(
            f"state dimension {psi.size} does not match pieces ({packed.dim})")
    exponential_total(r, len(plan.steps))
    out = psi.astype(np.complex128, copy=True)
    step_term, step_s = _plan_steps(plan, float(t), r)
    _kernels.apply_plan(out, packed.diag_ptr, packed.diag_idx, packed.diag_h,
                        packed.pair_ptr, packed.pair_lo, packed.pair_hi,
                        packed.pair_absa, packed.pair_u, step_term, step_s, r)
    return require_state(out)


def evolve_table(table: OneSparseTable, t: float, psi: np.ndarray) -> np.ndarray:
    """e^{-iHt} psi for a single 1-sparse piece, exactly."""
    packed = pack_tables([table])
    return apply_product_formula(packed, build_plan(1, 1), t, 1, psi)


# Working memory of nested_commutator_norms: one pass over a run of rows
# takes at most _BLOCK_BYTES // _TERM_BYTES three-step walks, unless one
# row has more.  A walk keeps three entry indices, a row index and three
# labels (44 bytes) and up to two terms of a key and a value (24 each);
# making the terms gathers its three values (48) and index temporaries.
# Traced at n = 12, d = 4, the peak is 112 bytes a walk, within 128.
_BLOCK_BYTES = 1 << 21
_TERM_BYTES = 128


def _runs(size: np.ndarray):
    """Consecutive slices whose sizes add up to at most one pass of terms;
    a single item larger than that is a slice of its own."""
    ends = np.cumsum(size)
    k0 = 0
    while k0 < size.size:
        done = ends[k0 - 1] if k0 else 0
        most = done + _BLOCK_BYTES // _TERM_BYTES
        k1 = max(int(np.searchsorted(ends, most, "right")), k0 + 1)
        yield slice(k0, k1)
        k0 = k1


class _Terms:
    """The terms (row, col, value) of a sparse product, row < rows and tag
    < tags, to be summed by (row, col) one by one, in the order of their
    tags, then in the order they were added.

    The sort key packs each term's tag and index below its row and column,
    so a plain sort of the keys, faster than an argsort, puts the terms in
    that order and says where each value is.
    """

    def __init__(self, rows: int, dim: int, tags: int):
        self.dim = dim
        self.col_bits = max(int(dim - 1).bit_length(), 1)
        self.tag_bits = int(tags - 1).bit_length()
        self.bits = int(rows - 1).bit_length() + self.col_bits + self.tag_bits
        self.heads, self.vals = [], []

    def add(self, row: np.ndarray, col: np.ndarray, val: np.ndarray,
            tag=0) -> None:
        self.heads.append((row << self.col_bits | col) << self.tag_bits | tag)
        self.vals.append(val)

    def row_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row that has terms, and the sum of |entry| along it in
        column order, added one by one as numerics.max_row_sum adds them."""
        key, vals = np.concatenate(self.heads), np.concatenate(self.vals)
        self.heads = self.vals = None
        low = max(int(key.size - 1).bit_length(), 1)
        if self.bits + low > 63:
            raise PlanError(
                f"dimension {self.dim} too large for the commutator norms")
        key <<= low
        key |= np.arange(key.size)
        key.sort()
        head = key >> (low + self.tag_bits)
        vals = vals[key & ((1 << low) - 1)]
        new = np.diff(head, prepend=-1) != 0
        group = np.cumsum(new) - 1
        # bincount adds one term at a time, in order; np.add.reduceat's
        # partial sums of a long run leave a residue where terms cancel
        sums = np.abs(np.bincount(group, vals.real)
                      + 1j * np.bincount(group, vals.imag))
        row = head[new] >> self.col_bits
        first = np.diff(row, prepend=-1) != 0
        return row[first], np.bincount(np.cumsum(first) - 1, weights=sums)


class _Walks:
    """H's entries sorted by row, then column, each with its value and the
    piece that holds it, and the walks along them.

    A step along an entry of piece l is a step of H_g for g = l and of the
    suffix S_g = H_{g+1} + ... + H_{m-1} for g < l: each entry is in one
    piece, so a walk's pieces say which products it is a term of.

    The set-up fills one array each of keys (row dim + col), values and
    pieces, a table at a time, and sorts them one at a time.
    """

    def __init__(self, tables: list[OneSparseTable]):
        self.m = m = len(tables)
        self.dim = dim = tables[0].dim
        # a zero value is no entry; pairs are validated nonzero
        size = [np.count_nonzero(t.diag_h) + 2 * t.pair_lo.size
                for t in tables]
        key = np.empty(sum(size), dtype=np.int64)
        self.val = np.empty(key.size, dtype=np.complex128)
        self.piece = np.repeat(np.arange(m, dtype=np.int32), size)
        for t, end, n in zip(tables, np.cumsum(size), size):
            rows, cols, vals = t.entries()
            kept = vals != 0
            key[end - n:end] = rows[kept] * dim + cols[kept]
            self.val[end - n:end] = vals[kept]
        order = np.argsort(key)
        key = key[order]
        self.val = self.val[order]
        self.piece = self.piece[order]
        del order
        shared = np.flatnonzero(key[1:] == key[:-1])
        if shared.size:
            x, y = divmod(int(key[shared[0]]), dim)
            raise PlanError(f"two pieces hold entry ({x}, {y}): "
                            f"the pieces must partition H")
        rows, self.col = np.divmod(key, dim)
        del key
        self.ptr = np.zeros(dim + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=dim), out=self.ptr[1:])
        # the rows that hold an entry, and the three-step walks from each
        length = np.diff(self.ptr).astype(np.float64)
        two = np.bincount(rows, weights=length[self.col], minlength=dim)
        three = np.bincount(rows, weights=two[self.col], minlength=dim)
        self.rows = np.flatnonzero(length)
        self.three = three[self.rows].astype(np.int64)

    def steps(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The entries of rows x, in row then column order, and the
        position in x of each one's row."""
        start, count = self.ptr[x], self.ptr[x + 1] - self.ptr[x]
        at = np.repeat(np.arange(x.size), count)
        shift = np.repeat(start - np.cumsum(count) + count, count)
        return np.arange(at.size) + shift, at


def _pair(val: np.ndarray, e: np.ndarray, f: np.ndarray,
          first: np.ndarray) -> np.ndarray:
    """C_g's terms of the steps e then f: H_g's value times S_g's, e being
    the step of H_g where first holds, and there negated (-H_g S_g)."""
    out = val[np.where(first, e, f)] * val[np.where(first, f, e)]
    return np.negative(out, out=out, where=first)


def nested_commutator_norms(tables: list[OneSparseTable]) -> np.ndarray:
    """Row-sum bounds on the nested commutators of the second-order bound.

    Row g (0-based) holds upper bounds on ||[S, [S, H_g]]|| and
    ||[H_g, [H_g, S]]||, where S = S_g is the suffix sum of the pieces
    after g (see suzuki.commutator_alpha).  A nested commutator of
    Hermitian matrices is Hermitian, so its largest absolute row sum
    bounds its spectral norm.  Duplicate entries are summed before the
    row sums, so commuting pieces give 0, exactly where the two products
    of each entry of C_g below come out equal.

    The pieces must act on one dimension and partition H, as a
    coloring's pieces do: pieces of different dimensions, or two pieces
    holding the same (row, col), raise PlanError, the latter naming the
    entry, before H is laid out.  A zero value is no entry.  H's entries
    are laid out once, sorted by row, each with its piece (_Walks), and
    each term of [X, C_g] = X C_g - C_g X, C_g = [S_g, H_g], X = S_g (side
    0) or H_g (side 1), is a walk x -> a -> b -> c along them whose pieces
    l1, l2, l3 say its g, side and sign (a step of piece l is one of S_g
    for l > g, of H_g for l = g).  Left, X C_g: g = min(l2, l3) if l2 !=
    l3 and l1 >= g, the value v1 (+-v2 v3), - if l2 = g; side l1 = g.
    Right, -C_g X: g = min(l1, l2) if l1 != l2 and l3 >= g, the value
    (-+v1 v2) v3, - if l2 = g; side l3 = g.  C_g's pair is multiplied
    first, H_g's value times S_g's, and negated exactly.  Each run of
    rows lists its walks once; each (row, col) sums its left terms in
    walk order, then its right ones by l3 (which says b), one by one, so
    the two terms of each entry of C_g are added one after the other and
    cancel where its two products come out equal.  The norms match those
    of re-sorting and re-padding S_g for each g to a relative 1e-12.

    Cost: with rows of H at most w long (w <= d for a coloring of a
    d-sparse H), an entry starts at most w^2 three-step walks, so all g
    together take O(nnz w^2) terms.  Memory: the sorted copy of H, 28
    bytes an entry (column, value, piece) and 8 a row; and one run's
    walks, at most _BLOCK_BYTES // _TERM_BYTES three-step walks unless one
    row has more, however large the products are.
    """
    norms = np.zeros((len(tables), 2))
    if len(tables) < 2:
        return norms
    if any(t.dim != tables[0].dim for t in tables):
        raise PlanError("pieces act on different dimensions")
    h = _Walks(tables)
    m, val = h.m, h.val
    for run in _runs(h.three):
        # the walks from the run's rows: entries e1, e2, e3, the row's
        # position i in the run, and their pieces
        e1, i = h.steps(h.rows[run])
        e2, j = h.steps(h.col[e1])
        e1, i = e1[j], i[j]
        e3, j = h.steps(h.col[e2])
        e1, e2, i = e1[j], e2[j], i[j]
        del j
        l1, l2, l3 = h.piece[e1], h.piece[e2], h.piece[e3]
        # outer row key (i m + g) 2 + side, at column c
        terms = _Terms(2 * (run.stop - run.start) * m, h.dim, m + 1)
        k = np.flatnonzero((l2 != l3) & (l1 >= np.minimum(l2, l3)))
        g = np.minimum(l2[k], l3[k])
        terms.add((i[k] * m + g) * 2 + (l1[k] == g), h.col[e3[k]],
                  val[e1[k]] * _pair(val, e2[k], e3[k], l2[k] == g))
        k = np.flatnonzero((l1 != l2) & (l3 >= np.minimum(l1, l2)))
        g = np.minimum(l1[k], l2[k])
        terms.add((i[k] * m + g) * 2 + (l3[k] == g), h.col[e3[k]],
                  -_pair(val, e1[k], e2[k], l1[k] == g) * val[e3[k]],
                  l3[k] + 1)
        del e1, e2, e3, i, l1, l2, l3, g, k
        rows, sums = terms.row_sums()
        np.maximum.at(norms.reshape(-1), rows % (2 * m), sums)
    return norms


def precision_bits(tau: float, d: int, k: int, eps: float) -> int:
    """Phase grid resolution: the smallest bit count n' with
    2^{-n'} < 2^{-5} eps / (tau d^2 5^k), clamped to [1, 62]."""
    if not all(is_integer(a, numbers.Integral) and a >= 1 for a in (d, k)):
        raise PlanError(f"bad arguments d={d} k={k}")
    if not (math.isfinite(tau) and tau >= 0
            and math.isfinite(eps) and eps > 0):
        raise PlanError(f"bad arguments tau={tau} eps={eps}")
    try:
        v = tau * d * d * 5.0 ** k / eps
        bits = math.floor(5.0 + math.log2(v)) + 1 if v > 0 else 1
    except OverflowError:  # past float range: clamped
        bits = 62
    return min(62, max(1, bits))


def check_bits(bits: int) -> None:
    if not (is_integer(bits, numbers.Integral) and 1 <= bits <= 62):
        raise PlanError(f"bit count {bits!r} outside 1..62")


def quantize_table(table: OneSparseTable, bits: int,
                   lam: float) -> OneSparseTable:
    """Round a piece table onto the grid lam / 2^bits, dropping zeros.

    Each stored value is one unordered pair, so the mirror entry is rounded
    with it (it stays the conjugate), and no oracle probes are spent.
    """
    check_bits(bits)
    lam = float(lam)
    if not (lam > 0 and np.isfinite(lam)):
        raise PlanError(f"bad grid scale {lam}")
    grid = lam / float(2 ** bits)
    diag_h = grid * np.round(table.diag_h / grid)
    amp = grid * (np.round(table.pair_amp.real / grid)
                  + 1j * np.round(table.pair_amp.imag / grid))
    dkeep = diag_h != 0
    pkeep = amp != 0
    return OneSparseTable(table.dim, table.diag_idx[dkeep], diag_h[dkeep],
                          table.pair_lo[pkeep], table.pair_hi[pkeep],
                          amp[pkeep])
