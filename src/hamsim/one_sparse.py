"""Exact evolution of 1-sparse Hermitian pieces.

A 1-sparse matrix touches each basis index x in one of three ways: not at
all, through a real diagonal entry, or by coupling x to a single partner.
e^{-iHt} therefore factors into scalar phases and 2x2 rotations, so each
piece is evolved exactly, and a full product-formula pass is a sequence of
such exact sweeps.  The module also covers the finite-precision side: how
many bits the per-pair phases need, and rounding piece tables onto that
grid; and it bounds the nested commutators of the pieces, sparsely, for
the commutator-scaling slice count of suzuki.

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
from .suzuki import ProductFormulaPlan, build_plan, is_integer

_HERM_TOL = 1e-12


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
    """Scan a piece into a table with exactly one probe per column.

    Columns are scanned in ascending order, so a coupling is discovered at
    its lower index; the partner is confirmed on the spot and never probed
    again.  Diagonal values must be real, and inconsistent pairings (partner
    pointing elsewhere, non-Hermitian back value) are rejected.
    """
    dim = piece.dim
    seen = np.zeros(dim, dtype=bool)
    diag_idx: list[int] = []
    diag_h: list[float] = []
    pair_lo: list[int] = []
    pair_hi: list[int] = []
    pair_amp: list[complex] = []
    for x in range(dim):
        if seen[x]:
            continue
        seen[x] = True
        y, v = piece.column(x)
        v = complex(v)
        if v == 0:
            continue
        if y == x:
            if abs(v.imag) > _HERM_TOL * max(1.0, abs(v)):
                raise OracleError(f"diagonal entry at {x} is not real: {v}")
            diag_idx.append(x)
            diag_h.append(v.real)
            continue
        y = int(y)
        if not 0 <= y < dim:
            raise OracleError(f"partner {y} of {x} out of range")
        if y < x:
            # y was scanned first and did not claim x.
            raise OracleError(f"one-way pairing between {x} and {y}")
        back_y, back = piece.column(y)
        back = complex(back)
        if back == 0 or back_y != x:
            raise OracleError(f"column {y} does not claim its partner {x}")
        if abs(back - v.conjugate()) > _HERM_TOL * max(1.0, abs(v)):
            raise OracleError(f"non-Hermitian pair ({x}, {y}): {v} vs {back}")
        seen[y] = True
        pair_lo.append(x)
        pair_hi.append(y)
        pair_amp.append(v)
    return OneSparseTable(dim, diag_idx, diag_h, pair_lo, pair_hi, pair_amp)


def table_to_dense(table: OneSparseTable) -> np.ndarray:
    rows, cols, vals = table.entries()
    H = np.zeros((table.dim, table.dim), dtype=np.complex128)
    H[rows, cols] = vals
    return H


def random_one_sparse_table(dim: int, seed: int | None = None,
                            diag_prob: float = 0.25,
                            empty_prob: float = 0.15,
                            norm_target: float | None = None
                            ) -> OneSparseTable:
    """Random 1-sparse Hermitian piece of arbitrary dimension."""
    if dim < 1:
        raise OracleError(f"bad dimension {dim}")
    if seed is not None and seed < 0:
        raise OracleError(f"seed must be nonnegative, got {seed}")
    if norm_target is not None and not (norm_target > 0 and np.isfinite(norm_target)):
        raise OracleError(
            f"norm target must be finite and positive, got {norm_target}")
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
        if roll < empty_prob:
            continue
        if roll < empty_prob + diag_prob or i == dim:
            diag_idx.append(x)
            diag_h.append(nonzero(float(rng.normal())))
            continue
        partner = order[i]
        i += 1
        a = complex(nonzero(float(rng.normal())), float(rng.normal()))
        pair_lo.append(min(x, partner))
        pair_hi.append(max(x, partner))
        pair_amp.append(a if x < partner else a.conjugate())
    table = OneSparseTable(dim, diag_idx, diag_h, pair_lo, pair_hi, pair_amp)
    if norm_target is not None and table.entry_count:
        scale = norm_target / table.norm
        table = OneSparseTable(dim, table.diag_idx, table.diag_h * scale,
                               table.pair_lo, table.pair_hi,
                               table.pair_amp * scale)
    return table


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


def check_repetitions(r: int) -> None:
    if not (is_integer(r, numbers.Integral) and r >= 1):
        raise PlanError(
            f"repetition count must be a positive integer, got {r}")


def apply_product_formula(packed: PackedPieces, plan: ProductFormulaPlan,
                          t: float, r: int, psi: np.ndarray) -> np.ndarray:
    """State after r repetitions of the plan with time slice t/r.

    Every sweep is exact per piece; the only approximation left is the
    product-formula splitting itself.
    """
    check_repetitions(r)
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


# Working memory of nested_commutator_norms: one pass over a block of
# pieces or of outer-product rows takes at most _BLOCK_BYTES // _TERM_BYTES
# terms, _TERM_BYTES being a generous count of what a term takes across its
# index, column, value and sort arrays; a block's row tables take at most
# _BLOCK_BYTES.
_BLOCK_BYTES = 1 << 21
_TERM_BYTES = 128


def _expand(start: np.ndarray, count: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """start[i] + k for every k < count[i], i ascending, and each one's i."""
    parent = np.repeat(np.arange(count.size), count)
    shift = np.repeat(start - np.cumsum(count) + count, count)
    return np.arange(parent.size) + shift, parent


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


def _distinct(keys: np.ndarray) -> np.ndarray:
    """np.unique, by a sort rather than its hash table, faster here."""
    keys = np.sort(keys)
    return keys[np.r_[True, keys[1:] != keys[:-1]]] if keys.size else keys


class _Terms:
    """The terms (row, col, value) of a sparse product, to be summed by
    (row, col), each sum over its terms in the order they were added, as
    np.add.reduceat sums.

    The sort key packs each term's index below its row and column, so a
    plain sort of the keys, faster than an argsort, groups the terms by
    (row, col) in the order they were added and says where each value is.
    """

    def __init__(self):
        self.parts, self.vals, self.n = [], [], 0

    def add(self, row: np.ndarray, col: np.ndarray, val: np.ndarray) -> None:
        self.parts.append((row, col, np.arange(self.n, self.n + row.size)))
        self.vals.append(val)
        self.n += row.size

    def sums(self, rows: int, dim: int
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row, column and sum of each distinct (row, col), sorted; rows
        bounds the row numbers."""
        row, col, index = (np.concatenate(part) for part in zip(*self.parts))
        vals = np.concatenate(self.vals)
        self.parts = self.vals = None
        if not row.size:
            return row, col, vals
        low = max(int(self.n - 1).bit_length(), 1)
        col_bits = max(int(dim - 1).bit_length(), 1)
        if int(rows - 1).bit_length() + col_bits + low > 63:
            raise PlanError(
                f"dimension {dim} too large for the commutator norms")
        key = (row << col_bits | col) << low | index
        key.sort()
        head = key >> low
        start = np.flatnonzero(np.r_[True, head[1:] != head[:-1]])
        vals = vals[key & ((1 << low) - 1)]
        head = head[start]
        return (head >> col_bits, head & ((1 << col_bits) - 1),
                np.add.reduceat(vals, start))

    def row_sums(self, rows: int, dim: int) -> np.ndarray:
        """For each row, the sum of |entry| in column order, added one by
        one as numerics.max_row_sum adds them."""
        row, _, sums = self.sums(rows, dim)
        return np.bincount(row, weights=np.abs(sums), minlength=rows)


class _Suffixes:
    """Every suffix S_g = H_{g+1} + ... + H_{m-1} of the pieces, and each
    piece H_g, read from one padded copy of H's rows.

    Row x holds one slot per entry (x, col) of each piece, in column order
    and then piece order.  A slot keeps its piece's value, for H_g, and
    its run value: the sum of that entry over this piece and the later
    pieces holding it, added from the last piece back, as the suffix sum
    adds them.  That value is S_g[x, col] for prev <= g < piece, where
    prev is the previous piece to hold (x, col), or -1; a run that sums to
    0 is in no S_g, as a zero entry is no entry.  So a row of S_g is the
    row's slots with prev <= g < piece, already in column order.
    """

    def __init__(self, tables: list[OneSparseTable]):
        m = len(tables)
        self.dim = dim = tables[0].dim
        coo = [t.entries() for t in tables]
        piece = np.repeat(np.arange(m, dtype=np.int32),
                          [c[0].size for c in coo])
        rows, cols, vals = (np.concatenate(part) for part in zip(*coo))
        del coo
        # sorted by row, then column; the sort is stable and the tables
        # come in piece order, so an entry's pieces stay in order
        order = np.flatnonzero(vals != 0)
        order = order[np.argsort(rows[order] * dim + cols[order], kind="stable")]
        rows, cols, vals, piece = rows[order], cols[order], vals[order], piece[order]
        del order
        later = np.r_[(rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1]), False]
        first = np.r_[True, ~later[:-1]]
        prev = np.where(first, -1, np.r_[-1, piece[:-1]]).astype(np.int32)
        # depth: how many later pieces hold the same entry
        ends = np.flatnonzero(~later)
        depth = ends[np.cumsum(first) - 1] - np.arange(rows.size)
        run = vals.copy()
        for d in range(1, int(depth.max(initial=0)) + 1):
            at = np.flatnonzero(depth == d)
            run[at] = run[at + 1] + vals[at]
        prev[run == 0] = piece[run == 0]

        counts = np.bincount(rows, minlength=dim)
        self.width = width = max(int(counts.max(initial=0)), 1)
        slot = (rows * width + np.arange(rows.size)
                - (np.cumsum(counts) - counts)[rows])
        # rows padded out to a power of two, so that a row's key in a
        # block splits into piece and row by shift and mask
        self.shift = (dim - 1).bit_length()
        self.mask = (1 << self.shift) - 1
        padded = (self.mask + 1, width)
        self.col = np.zeros(padded, dtype=np.int64)
        self.val = np.zeros(padded, dtype=np.complex128)
        self.run = np.zeros(padded, dtype=np.complex128)
        self.piece = np.full(padded, -1, dtype=np.int32)
        self.prev = np.zeros(padded, dtype=np.int32)
        for name, data in (("col", cols), ("val", vals), ("run", run),
                           ("piece", piece), ("prev", prev)):
            getattr(self, name).reshape(-1)[slot] = data
        by_piece = np.argsort(piece, kind="stable")
        self.by_piece = slot[by_piece]
        self.piece_ptr = np.searchsorted(piece[by_piece], np.arange(m + 1))

    def blocks(self):
        """Runs of consecutive pieces g < m - 1 small enough for one block:
        row tables of at most _BLOCK_BYTES, and inner commutators of at
        most _BLOCK_BYTES, at 24 bytes an entry and at most 2 width
        entries per entry of H_g (one for each side and slot of S_g).  A
        piece too large for that is a block of its own."""
        cap = max(_BLOCK_BYTES // (24 * 2 * self.width), 1)
        most = max(_BLOCK_BYTES // ((32 + 3 * self.width) * (self.mask + 1)),
                   1)
        sizes = np.diff(self.piece_ptr)[:-1].tolist()
        g0, total = 0, 0
        for g, size in enumerate(sizes):
            if g > g0 and (total + size > cap or g - g0 == most):
                yield _Block(self, g0, g)
                g0, total = g, 0
            total += size
        if sizes:
            yield _Block(self, g0, len(sizes))


class _Block:
    """Pieces g0 <= g < g1 of a _Suffixes, with tables over their rows:
    row (g, x) is keyed (g - g0) << shift | x.  Holds which slots are in
    S_g, H_g's slot, and the inner commutator C_g = [S_g, H_g] by rows."""

    def __init__(self, h: _Suffixes, g0: int, g1: int):
        self.h, self.g0 = h, g0
        table = (g1 - g0) << h.shift
        gs = np.arange(g0, g1, dtype=np.int32)[:, None, None]
        self.active = ((h.prev <= gs) & (gs < h.piece)).reshape(-1, h.width)
        self.length = np.zeros(table, dtype=np.int64)
        for s in range(h.width):
            self.length += self.active[:, s]
        slots = h.by_piece[h.piece_ptr[g0]:h.piece_ptr[g1]]
        keys = ((h.piece.reshape(-1)[slots].astype(np.int64) - g0) << h.shift
                | slots // h.width)
        self.own_slot = np.full(table, -1, dtype=np.int64)
        self.own_slot[keys] = slots
        i, t = np.nonzero(self.active[keys])
        keys = _distinct(np.concatenate([keys, self.neighbours(keys[i], t)]))
        # terms per row: one per slot of S_g, and one per slot of the
        # partner's row
        hit, k, _ = self.own(keys)
        size = self.length[keys]
        size[hit] += self.length[self.same_piece(keys[hit], k)]
        rows = [self.inner_rows(keys[run]) for run in _runs(size)] or [
            self.inner_rows(keys)]
        counts, self.c_col, self.c_val = (np.concatenate(part)
                                          for part in zip(*rows))
        # C's rows: their keys, and where each row's entries start and how
        # many there are
        self.c_keys = keys
        self.c_start = np.zeros(table, dtype=np.int64)
        self.c_start[keys] = np.cumsum(counts) - counts
        self.c_len = np.zeros(table, dtype=np.int64)
        self.c_len[keys] = counts

    def same_piece(self, keys: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The key of row x[i] in the piece of keys[i]."""
        return keys & ~self.h.mask | x

    def neighbours(self, keys: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The key of the row that slot t of row keys points to."""
        return self.same_piece(keys, self.h.col[keys & self.h.mask, t])

    def own(self, keys: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """H_g's entry in each row: whether there is one, then the column
        and value of those there are."""
        s = self.own_slot[keys]
        hit = s >= 0
        s = s[hit]
        return hit, self.h.col.reshape(-1)[s], self.h.val.reshape(-1)[s]

    def entries(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The entries of C's rows keys, as flat indices, and the position
        of each one's row in keys."""
        return _expand(self.c_start[keys], self.c_len[keys])

    def inner_rows(self, keys: np.ndarray):
        """Rows keys of C = [S_g, H_g]: per-row entry counts, then columns
        and values, duplicates summed and zeros dropped."""
        h = self.h
        terms = _Terms()
        # S_g H_g: S_g[x, j] H_g[j, c], with S_g[x, j] = conj(S_g[j, x])
        i, t = np.nonzero(self.active[keys])
        hit, c, hv = self.own(self.neighbours(keys[i], t))
        i, t = i[hit], t[hit]
        terms.add(i, c, h.run[keys[i] & h.mask, t] * hv)
        # -H_g S_g: -H_g[x, k] S_g[k, y]
        hit, k, hv = self.own(keys)
        p = np.flatnonzero(hit)
        k = self.same_piece(keys[p], k)
        i, t = np.nonzero(self.active[k])
        x = k[i] & h.mask
        terms.add(p[i], h.col[x, t], -hv[i] * h.run[x, t])
        row, col, val = terms.sums(keys.size, h.dim)
        nonzero = val != 0
        return (np.bincount(row[nonzero], minlength=keys.size),
                col[nonzero], val[nonzero])

    def outer_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Keys of the rows where [S_g, [S_g, H_g]] or [H_g, [H_g, S_g]]
        can be nonzero, and at most how many terms each row has."""
        keys = self.c_keys[self.c_len[self.c_keys] > 0]
        i, t = np.nonzero(self.active[keys])
        hit, p, _ = self.own(keys)
        keys = _distinct(np.concatenate([
            keys, self.neighbours(keys[i], t), self.same_piece(keys[hit], p)]))
        # terms per row: S_g C has one per entry of C's rows at the row's
        # slots, C S_g at most width per entry of C's own row, and [H_g, C]
        # one per entry of its own and its partner's rows
        i, t = np.nonzero(self.active[keys])
        size = np.bincount(i, weights=self.c_len[self.neighbours(keys[i], t)],
                           minlength=keys.size).astype(np.int64)
        size += self.c_len[keys] * (self.h.width + 1)
        hit, p, _ = self.own(keys)
        size[hit] += self.c_len[self.same_piece(keys[hit], p)]
        return keys, size

    def outer(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row sums of [S_g, C] and [H_g, C], C = [S_g, H_g], for rows
        keys; row n + i of the terms is row i of [H_g, C]."""
        h, n = self.h, keys.size
        x = keys & h.mask
        terms = _Terms()
        # S_g C: S_g[x, j] C[j, c]
        i, t = np.nonzero(self.active[keys])
        e, at = self.entries(self.neighbours(keys[i], t))
        terms.add(i[at], self.c_col[e], h.run[x[i], t][at] * self.c_val[e])
        # -C S_g: -C[x, k] S_g[k, y]
        e, p = self.entries(keys)
        k = self.same_piece(keys[p], self.c_col[e])
        i, t = np.nonzero(self.active[k])
        xk = k[i] & h.mask
        terms.add(p[i], h.col[xk, t], -self.c_val[e][i] * h.run[xk, t])
        # H_g C: H_g[x, k] C[k, y], with H_g[x, k] = conj(H_g[k, x])
        hit, own_col, hv = self.own(keys)
        rows = np.flatnonzero(hit)
        e2, at = self.entries(self.same_piece(keys[rows], own_col))
        terms.add(n + rows[at], self.c_col[e2], hv[at] * self.c_val[e2])
        # -C H_g: -C[x, k] H_g[k, q]
        hit, q, hk = self.own(k)
        terms.add(n + p[hit], q, -self.c_val[e][hit] * hk)
        sums = terms.row_sums(2 * n, h.dim)
        return sums[:n], sums[n:]


def nested_commutator_norms(tables: list[OneSparseTable]) -> np.ndarray:
    """Row-sum bounds on the nested commutators of the second-order bound.

    Row g (0-based) holds upper bounds on ||[S, [S, H_g]]|| and
    ||[H_g, [H_g, S]]||, where S = S_g is the suffix sum of the pieces
    after g (see suzuki.commutator_alpha).  A nested commutator of
    Hermitian matrices is Hermitian, so its largest absolute row sum
    bounds its spectral norm.  Duplicate entries are summed before the
    row sums, so commuting pieces give exactly 0.

    H's entries are laid out once as padded rows, each slot tagged with
    its piece, and every S_g is read from that one copy by masking on
    piece: no suffix is re-sorted or re-padded per piece.  Where several
    pieces hold one (row, col), a slot holds that entry's sum over its
    own piece and the later ones, added last piece first, and is in S_g
    for the run of g from the previous piece holding the entry up to its
    own; so S_g's value there is (H_{m-1} + H_{m-2}) + ... + H_{g+1} in
    that order, summed before any product, and a sum of 0 is no entry.
    Each product's terms are summed by row and column, each sum over its
    own terms only, in the order they are listed; the norms match those
    of re-sorting and re-padding S_g for each g to a relative 1e-12.

    Cost: with rows of H at most w long (w <= d for a coloring of a
    d-sparse H), [S_g, H_g] has at most 2w entries per entry of H_g and
    each outer product O(w^2) terms, so all g together take O(nnz w^2)
    terms, plus a mask of each piece's rows.  Memory: the padded copy of
    H, 48 bytes a slot; row tables for one block of pieces, at most
    _BLOCK_BYTES unless one piece's rows need more; that block's inner
    commutators; and one pass of terms, at most _BLOCK_BYTES // _TERM_BYTES
    of them, however large the products are.
    """
    norms = np.zeros((len(tables), 2))
    if len(tables) < 2:
        return norms
    h = _Suffixes(tables)
    for block in h.blocks():
        keys, size = block.outer_rows()
        for run in _runs(size):
            g = block.g0 + (keys[run] >> h.shift)
            for col, sums in enumerate(block.outer(keys[run])):
                np.maximum.at(norms[:, col], g, sums)
        del block  # before the next one is built
    return norms


def precision_bits(tau: float, d: int, k: int, eps: float) -> int:
    """Phase grid resolution: the smallest bit count n' with
    2^{-n'} < 2^{-5} eps / (tau d^2 5^k), clamped to [1, 62]."""
    if d < 1 or k < 1:
        raise PlanError(f"bad arguments d={d} k={k}")
    if not tau >= 0 or not eps > 0:
        raise PlanError(f"bad arguments tau={tau} eps={eps}")
    if tau == 0:
        return 1
    v = 5.0 + math.log2(tau * d * d * 5.0 ** k / eps)
    return min(62, max(1, math.floor(v) + 1))


def check_bits(bits: int) -> None:
    if not (is_integer(bits, numbers.Integral) and 1 <= bits <= 62):
        raise PlanError(f"bit count {bits} outside 1..62")


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
