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
rotation [[cos, -i u sin], [-i conj(u) sin, cos]] with angle |a| s to pairs.
Pairs within a piece are disjoint (1-sparsity), so vectorized fancy-index
assignment is safe.  The whole plan is repeated `reps` times, in place.
"""

from __future__ import annotations

import numpy as np

BACKEND = "py"


def available_backends() -> list[str]:
    """Names of the kernels this build ships: only the numpy one."""
    return [BACKEND]


def apply_plan(psi, diag_ptr, diag_idx, diag_h, pair_ptr, pair_lo, pair_hi,
               pair_absa, pair_u, step_term, step_s, reps):
    nsteps = step_term.shape[0]
    for _ in range(reps):
        for si in range(nsteps):
            t = step_term[si]
            s = step_s[si]
            d0, d1 = diag_ptr[t], diag_ptr[t + 1]
            if d1 > d0:
                idx = diag_idx[d0:d1]
                psi[idx] *= np.exp(-1j * s * diag_h[d0:d1])
            p0, p1 = pair_ptr[t], pair_ptr[t + 1]
            if p1 > p0:
                lo = pair_lo[p0:p1]
                hi = pair_hi[p0:p1]
                th = pair_absa[p0:p1] * s
                c = np.cos(th)
                sn = np.sin(th)
                u = pair_u[p0:p1]
                a_lo = psi[lo]
                a_hi = psi[hi]
                psi[lo] = c * a_lo - 1j * u * sn * a_hi
                psi[hi] = c * a_hi - 1j * u.conj() * sn * a_lo
