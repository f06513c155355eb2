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
e^{-i h s} and, per pair, c and b (c is stored complex because numpy
multiplies a real array by a complex one through a slower casting loop).
Steps on empty pieces are dropped here.  The second phase runs the
reps x steps loop with no transcendental call, in one of two forms.

Pair form.  Per step, gather x = psi[lo] and y = psi[hi] and scatter back
c x + b y and c y - conj(b) x, forming the hi row's -conj(b) on the fly.
The cache takes 16 D_t + 32 P_t bytes per distinct step on piece t.

Full-vector form.  Per piece with pairs, a partner index over the whole
vector (partner[lo] = hi, partner[hi] = lo, every other index itself);
per distinct step on it, C (c on pair indices, 1 elsewhere) and B (b on
lo, -conj(b) on hi, 0 elsewhere).  A step is then one gather and three
full-vector operations, t = psi[partner]; t = B t; psi *= C; psi += t,
which equals the pair form bit for bit: off the pairs it multiplies by 1
and adds 0.  Each numpy call has an overhead of about a microsecond
whatever its length, so at small dimensions these four calls beat the pair
form's eleven (two gathers, two scatters, conj and six arithmetic
operations).  The cache takes 32 B x dim
per distinct step on a piece with pairs, plus 8 B x dim per such piece.

Diagonal phases stay a separate psi[idx] *= phase in both forms.  Folded
into C, a lone diagonal entry would be multiplied by the vector loop, not
by numpy's length-1 scalar path, whose rounding differs (by 5e-18 in one
test), and the form would no longer equal the pair form bit for bit.

apply_plan takes the full-vector form when its C and B arrays, distinct
paired steps x dim x 32 B, fit in _FULL_FORM_BYTES (4 MiB), and the pair
form otherwise, so the choice depends on the input alone.  Of the benchmark
workloads, parity-ladder (2 steps at dimension 256, 16 KiB), sim-deep (22
at 256, 176 KiB) and sim-wide (29 at 512, 464 KiB) run the full-vector
form, and kernel-wide (13 steps at 65,536, 26 MiB, against 12.4 MB in the
pair form) the pair form.
"""

from __future__ import annotations

import numpy as np

BACKEND = "py"


def available_backends() -> list[str]:
    """Names of the kernels this build ships: only the numpy one."""
    return [BACKEND]


# Largest full-vector coefficient cache apply_plan builds, in bytes; a plan
# whose distinct paired steps would need more runs in the pair form.
_FULL_FORM_BYTES = 4 << 20


def _step_coefficients(diag_ptr, diag_idx, diag_h, pair_ptr, pair_lo,
                       pair_hi, pair_absa, pair_u, plan):
    """Pair-form coefficients (diag_idx, phase, lo, hi, c, b) of each
    distinct (piece, s) in `plan` whose piece has any entry, keyed on it.

    Index arrays are views into the packed arrays.
    """
    cache = {}
    for t, s in plan:
        d0, d1 = diag_ptr[t], diag_ptr[t + 1]
        p0, p1 = pair_ptr[t], pair_ptr[t + 1]
        if (t, s) in cache or (d0 == d1 and p0 == p1):
            continue
        th = pair_absa[p0:p1] * s
        cache[t, s] = (diag_idx[d0:d1], np.exp(-1j * s * diag_h[d0:d1]),
                       pair_lo[p0:p1], pair_hi[p0:p1],
                       np.cos(th).astype(np.complex128),
                       -1j * pair_u[p0:p1] * np.sin(th))
    return cache


def _full_vector(cache, dim):
    """The cache in full-vector form, (diag_idx, phase, partner, C, B) per
    step, with partner, C and B None on a piece without pairs."""
    partners = {}
    full = {}
    for (t, s), (idx, phase, lo, hi, c, b) in cache.items():
        if not lo.size:
            full[t, s] = (idx, phase, None, None, None)
            continue
        if t not in partners:
            partner = np.arange(dim)
            partner[lo] = hi
            partner[hi] = lo
            partners[t] = partner
        C = np.ones(dim, dtype=np.complex128)
        C[lo] = c
        C[hi] = c
        B = np.zeros(dim, dtype=np.complex128)
        B[lo] = b
        B[hi] = -b.conj()
        full[t, s] = (idx, phase, partners[t], C, B)
    return full


def apply_plan(psi, diag_ptr, diag_idx, diag_h, pair_ptr, pair_lo, pair_hi,
               pair_absa, pair_u, step_term, step_s, reps):
    plan = list(zip(step_term.tolist(), step_s.tolist()))
    cache = _step_coefficients(diag_ptr, diag_idx, diag_h, pair_ptr, pair_lo,
                               pair_hi, pair_absa, pair_u, plan)
    paired = sum(1 for coefficients in cache.values() if coefficients[2].size)
    full = paired * psi.size * 32 <= _FULL_FORM_BYTES
    if full:
        cache = _full_vector(cache, psi.size)
    steps = [cache[key] for key in plan if key in cache]
    if full:
        for _ in range(reps):
            for idx, phase, partner, C, B in steps:
                if idx.size:
                    psi[idx] *= phase
                if partner is not None:
                    t = psi[partner]
                    # B first, as in the pair form's b * y: numpy's complex
                    # multiply does not always round x * y as y * x (C is
                    # real-valued, so psi *= C rounds as c * x does)
                    np.multiply(B, t, out=t)
                    psi *= C
                    psi += t
        return
    for _ in range(reps):
        for idx, phase, lo, hi, c, b in steps:
            if idx.size:
                psi[idx] *= phase
            if lo.size:
                x = psi[lo]
                y = psi[hi]
                psi[lo] = c * x + b * y
                psi[hi] = c * y - b.conj() * x
