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
from .numerics import max_row_sum, require_state
from .suzuki import ProductFormulaPlan, build_plan

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


def apply_product_formula(packed: PackedPieces, plan: ProductFormulaPlan,
                          t: float, r: int, psi: np.ndarray) -> np.ndarray:
    """State after r repetitions of the plan with time slice t/r.

    Every sweep is exact per piece; the only approximation left is the
    product-formula splitting itself.
    """
    if not (isinstance(r, numbers.Integral) and r >= 1):
        raise PlanError(
            f"repetition count must be a positive integer, got {r}")
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


def _combine(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, dim: int
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def _padded_rows(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-sorted COO entries as (dim, w) column and value arrays, each row
    padded with zero values out to the longest row's length w."""
    counts = np.bincount(rows, minlength=dim)
    width = max(int(counts.max(initial=0)), 1)
    slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    pad_cols = np.zeros((dim, width), dtype=np.int64)
    pad_vals = np.zeros((dim, width), dtype=np.complex128)
    pad_cols[rows, slot] = cols
    pad_vals[rows, slot] = vals
    return pad_cols, pad_vals


def _commutator(a_cols: np.ndarray, a_vals: np.ndarray, rows: np.ndarray,
                cols: np.ndarray, vals: np.ndarray, dim: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[A, M] as combined COO entries, for Hermitian A in padded rows.

    (AM)[x, j] = sum_i A[x, i] M[i, j], and A[x, i] = conj(A[i, x]), so
    entry (i, j, v) of M moves to each (x, j) with x in row i of A; in MA
    it moves to each (i, y) with y in row j of A.  Both are gathers.
    """
    width = a_cols.shape[1]
    left_vals = a_vals[rows].conj() * vals[:, None]
    right_vals = -vals[:, None] * a_vals[cols]
    return _combine(
        np.concatenate([a_cols[rows].ravel(), np.repeat(rows, width)]),
        np.concatenate([np.repeat(cols, width), a_cols[cols].ravel()]),
        np.concatenate([left_vals.ravel(), right_vals.ravel()]), dim)


def nested_commutator_norms(tables: list[OneSparseTable]) -> np.ndarray:
    """Row-sum bounds on the nested commutators of the second-order bound.

    Row g (0-based) holds upper bounds on ||[S, [S, H_g]]|| and
    ||[H_g, [H_g, S]]||, where S is the suffix sum of the pieces after g
    (see suzuki.commutator_alpha).  A nested commutator of Hermitian
    matrices is Hermitian, so its largest absolute row sum bounds its
    spectral norm.  Everything is sparse: a piece has at most one entry
    per row, so a row of S has at most one per piece after g (for a
    coloring of a d-sparse H, at most d), and duplicate entries are summed
    before the row sums, so commuting pieces give exactly 0.
    """
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
        inner = _commutator(s_cols, s_vals, *coo[g], dim)  # [S, H_g]
        outer_s = _commutator(s_cols, s_vals, *inner, dim)
        outer_h = _commutator(piece_cols, piece_vals, *inner, dim)
        norms[g] = (max_row_sum(outer_s[0], outer_s[2]),
                    max_row_sum(outer_h[0], outer_h[2]))
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


def quantize_table(table: OneSparseTable, bits: int,
                   lam: float) -> OneSparseTable:
    """Round a piece table onto the grid lam / 2^bits, dropping zeros.

    Each stored value is one unordered pair, so the mirror entry is rounded
    with it (it stays the conjugate), and no oracle probes are spent.
    """
    if not 1 <= bits <= 62:
        raise PlanError(f"bit count {bits} outside 1..62")
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
