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

apply_plan runs in two phases.  A plan repeats the same few steps r times,
so the first phase walks the step list once and computes the coefficients
of each distinct (piece, s), keyed on the exact float s: the phases
e^{-i h s} (complex, 16 B per diagonal entry) and, per pair, c (real, 8 B)
and b (complex, 16 B); the hi row's -conj(b) is formed on the fly, not
stored.  The cache therefore takes 16 D_t + 24 P_t bytes per distinct step
on piece t.  There are at most as many distinct steps as plan steps, and
far fewer in practice: 2 for k=1 with two pieces, 13 for k=2 with six
(about 9.8 MB for six random pieces at dimension 65,536).  The second
phase runs the reps x steps loop as gathers and multiply-adds, with no
transcendental calls.
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
                          np.cos(th), -1j * pair_u[p0:p1] * np.sin(th))
        steps.append(cache[key])
    return steps


def apply_plan(psi, diag_ptr, diag_idx, diag_h, pair_ptr, pair_lo, pair_hi,
               pair_absa, pair_u, step_term, step_s, reps):
    steps = _step_coefficients(diag_ptr, diag_idx, diag_h, pair_ptr, pair_lo,
                               pair_hi, pair_absa, pair_u, step_term, step_s)
    for _ in range(reps):
        for idx, phase, lo, hi, c, b in steps:
            if idx.size:
                psi[idx] *= phase
            if lo.size:
                x = psi[lo]
                y = psi[hi]
                psi[lo] = c * x + b * y
                psi[hi] = c * y - b.conj() * x
