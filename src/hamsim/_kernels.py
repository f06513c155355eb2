"""Numpy kernel for repeated product-formula application.

Packed-array layout (built by one_sparse.pack_tables): the m pieces are
concatenated into flat arrays with CSR-style pointer arrays.

  diag_ptr  int64[m+1]   diagonal entries of piece t live in [ptr[t], ptr[t+1])
  diag_idx  int64[D]     basis index of each diagonal entry
  diag_h    float64[D]   real diagonal value h; the step multiplies by e^{-i h s}
  pair_ptr  int64[m+1]   off-diagonal pairs of piece t
  pair_lo   int64[P]     lower basis index x of the pair (x < y)
  pair_hi   int64[P]     upper basis index y
  pair_absa float64[P]   |a| where a = H[x, y]
  pair_u    complex128[P]  a / |a|
  step_term int64[S]     0-based piece id per plan step
  step_s    float64[S]   scaled time per step (fraction * t / r)

Each step applies, within one piece, e^{-i h s} to diagonal entries and the
rotation [[c, b], [-conj(b), c]] to pairs, with c = cos(|a| s) and
b = -i u sin(|a| s).  Pairs within a piece are disjoint (1-sparsity), so
vectorized fancy-index assignment is safe.  The whole plan is repeated
`reps` times, in place.

apply_plan runs in three phases.  A plan repeats the same few steps r
times, so the first phase walks the step list once and computes the
coefficients of each distinct (piece, s), keyed on the exact float s: the
phases e^{-i h s} (16 B per diagonal entry) and, per pair, c and b (both
complex, 32 B; c is stored complex because numpy multiplies a real array
by a complex one through a slower casting loop); the hi row's -conj(b) is
formed on the fly, not stored.  The cache therefore takes 16 D_t + 32 P_t
bytes per distinct step on piece t.  There are at most as many distinct
steps as plan steps, and far fewer in practice: 2 for k=1 with two pieces,
13 for k=2 with six (about 12.4 MB for six random pieces at dimension
65,536).

The second phase schedules one repetition into layers.  Two pieces
conflict when they touch a common basis index (one boolean mask per piece,
compared once per pair of pieces).  Each step goes to the layer after the
last layer holding an earlier step whose piece conflicts with its own, so
steps in one layer touch disjoint indices, and conflicting steps keep
their order.  Every amplitude therefore sees the same operations in the
same order as in a step-by-step loop, and the output is bit-identical to
it.  One numpy detail is part of that: numpy multiplies a one-element
complex array in place without FMA and a longer one with it, so a piece
with a single diagonal entry also conflicts with every piece that has
diagonal entries (numpy 2.4 on x86-64 with AVX-512).  A layer of one step
uses that step's cached arrays; a larger layer concatenates its steps'
arrays once per call, adding their bytes to the cache.  On the simulate
path the coloring pieces are small and mostly disjoint (a random n=8 d=3
instance runs 43 steps as 22 layers); large random pieces overlap and keep
one step per layer.

The third phase runs the reps x layers loop as gathers and multiply-adds,
with no transcendental calls.
"""

from __future__ import annotations

import numpy as np

BACKEND = "py"


def available_backends() -> list[str]:
    """Names of the kernels this build ships: only the numpy one."""
    return [BACKEND]


def _step_coefficients(diag_ptr, diag_idx, diag_h, pair_ptr, pair_lo,
                       pair_hi, pair_absa, pair_u, step_term, step_s):
    """Per plan step, (diag_idx, phase, lo, hi, c, b) of its piece.

    Index arrays are views into the packed arrays; the coefficient arrays
    are built once per distinct (piece, s) and shared by its repeats.
    """
    cache = {}
    steps = []
    for t, s in zip(step_term.tolist(), step_s.tolist()):
        key = (t, s)
        if key not in cache:
            d0, d1 = diag_ptr[t], diag_ptr[t + 1]
            p0, p1 = pair_ptr[t], pair_ptr[t + 1]
            th = pair_absa[p0:p1] * s
            cache[key] = (diag_idx[d0:d1], np.exp(-1j * s * diag_h[d0:d1]),
                          pair_lo[p0:p1], pair_hi[p0:p1],
                          np.cos(th).astype(np.complex128),
                          -1j * pair_u[p0:p1] * np.sin(th))
        steps.append(cache[key])
    return steps


def _piece_conflicts(dim, diag_ptr, diag_idx, pair_ptr, pair_lo, pair_hi):
    """conflicts[a, b]: steps on pieces a and b may not share a layer.

    They may not when the pieces touch a common basis index, or when one
    has a single diagonal entry and the other has any.
    """
    m = diag_ptr.size - 1
    touched = np.zeros((m, dim), dtype=bool)
    for t in range(m):
        touched[t, diag_idx[diag_ptr[t]:diag_ptr[t + 1]]] = True
        touched[t, pair_lo[pair_ptr[t]:pair_ptr[t + 1]]] = True
        touched[t, pair_hi[pair_ptr[t]:pair_ptr[t + 1]]] = True
    bits = np.packbits(touched, axis=1)
    conflicts = np.array([(bits & row).any(axis=1) for row in bits])
    # a lone diagonal entry keeps its layer's diagonal to itself, so that
    # its in-place multiply stays one element long (see the module docstring)
    n_diag = np.diff(diag_ptr)
    lone, some = n_diag == 1, n_diag > 0
    return conflicts | np.outer(lone, some) | np.outer(some, lone)


def _layers(steps, step_term, conflicts):
    """Group the steps into layers of steps that do not conflict.

    Each step goes to the layer after the last one holding an earlier step
    whose piece it conflicts with, so conflicting steps keep their order.
    A lone step keeps its cached arrays; a larger layer concatenates them.
    """
    last = np.full(len(conflicts), -1)
    groups = []
    for step, t in zip(steps, step_term.tolist()):
        layer = int(last[conflicts[t]].max(initial=-1)) + 1
        if layer == len(groups):
            groups.append([])
        groups[layer].append(step)
        last[t] = layer
    return [group[0] if len(group) == 1
            else tuple(np.concatenate(parts) for parts in zip(*group))
            for group in groups]


def apply_plan(psi, diag_ptr, diag_idx, diag_h, pair_ptr, pair_lo, pair_hi,
               pair_absa, pair_u, step_term, step_s, reps):
    steps = _step_coefficients(diag_ptr, diag_idx, diag_h, pair_ptr, pair_lo,
                               pair_hi, pair_absa, pair_u, step_term, step_s)
    conflicts = _piece_conflicts(psi.size, diag_ptr, diag_idx, pair_ptr,
                                 pair_lo, pair_hi)
    layers = _layers(steps, step_term, conflicts)
    for _ in range(reps):
        for idx, phase, lo, hi, c, b in layers:
            if idx.size:
                psi[idx] *= phase
            if lo.size:
                x = psi[lo]
                y = psi[hi]
                psi[lo] = c * x + b * y
                psi[hi] = c * y - b.conj() * x
