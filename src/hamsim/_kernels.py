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
b = -i u sin(|a| s).  Pairs within a piece are disjoint (1-sparsity), so a
piece acts on each basis index at most once.  The whole plan is repeated
`reps` times, in place.  Every form computes a diagonal entry z as z *=
phase and a pair (x, y) as x' = c x + b y and y' = c y - conj(b) x, with
these operand orders, so all forms give the same state bit for bit
(numpy's complex multiply does not always round x * y as y * x).

apply_plan runs in two phases.  A plan repeats the same few steps r times,
so the first phase walks the step list once and computes the coefficients
of each distinct (piece, s), keyed on the exact float s: the phases
e^{-i h s} and, per pair, c and b (c is stored complex because numpy
multiplies a real array by a complex one through a slower casting loop).
This cache takes 16 D_t + 32 P_t bytes per distinct step on a piece t
with D_t diagonal entries and P_t pairs.  Steps on empty pieces are
dropped here.  The second phase runs the reps x steps loop with no
transcendental call, in one of two forms.

Full-vector form.  Per piece with pairs, a partner index over the whole
vector (partner[lo] = hi, partner[hi] = lo, every other index itself);
per distinct step on it, C (c on pair indices, 1 elsewhere) and B (b on
lo, -conj(b) on hi, 0 elsewhere).  A step is then one gather and three
full-vector operations, t = psi[partner]; t = B t; psi = psi C; psi += t:
off the pairs it multiplies by 1 and adds 0.  Each numpy call has an
overhead of about a microsecond whatever its length, so at small
dimensions four calls per step win; the gather goes into one buffer made
once, by take with mode="clip", and the ufuncs take their arguments
positionally.  The cache takes 32 B x dim per distinct step on a piece
with pairs, plus 8 B x dim per such piece.
Diagonal phases stay a separate psi[idx] *= phase: folded into C, a lone
diagonal entry would be multiplied by the vector loop, not by numpy's
length-1 path, whose rounding differs (by 5e-18 in one test).

Layout form.  Piece t's layout orders the basis as its lo block, its hi
block, its diagonal block, then the indices it leaves alone, so its
diagonal phases and rotations act on contiguous slices.  The state lives
in the current piece's layout, in psi or in one more dim-length buffer,
and each rep starts in the layout of the plan's last piece.  When the
piece changes, one full-vector move puts the state into the next piece's
layout: for each pair of pieces that follow each other in the plan, one
int64 index array g (8 B x dim) serves as a gather one way,
src.take(g, out=dst, mode="clip"), and as a scatter the other way,
dst[g] = src.  A step is then at most nine numpy calls: the move, the
diagonal multiply, and seven for the pairs (conj(b), four products, a sum
and a difference), all but the move on contiguous memory.  Two details
keep it fast and exact.  mode="clip" writes straight into dst, where
take's default mode="raise" buffers its output (206 against 429
microseconds for 65,536 entries on a 2-vCPU x86-64 VM).  And no product
writes into one of its own inputs: the products go to the idle buffer
and a scratch array of the largest pair count, because numpy rounds an
aliased length-1 complex multiply differently from a fresh one.  Beyond
the cache, the form holds the buffer (16 B x dim), the moves, a map into
the last piece's layout (8 B x dim) and the scratch (16 B per pair).

apply_plan takes the full-vector form when its C and B arrays, distinct
paired steps x dim x 32 B, fit in _FULL_FORM_BYTES (4 MiB), and the layout
form otherwise, so the choice depends on the input alone.  Of the
benchmark workloads, parity-ladder (2 steps at 130, the ladder's own
2(N+1) states, 8 KiB), sim-deep (8 at 256, 64 KiB) and sim-wide (15 at
512, 240 KiB) run the full-vector form, and kernel-wide (13 steps at
65,536, 26 MiB) the layout form, with 12.4 MB of cache and five moves.
There, against gathering and scattering each step's pairs and diagonal
entries by index, the layout form cut the median solve from 0.317 to
0.238 reference s and raised peak RSS from 74.7 to 76.7 MiB (ten pairs of
runs, BENCH_14.json).
"""

from __future__ import annotations

import numpy as np

BACKEND = "py"


def available_backends() -> list[str]:
    """Names of the kernels this build ships: only the numpy one."""
    return [BACKEND]


# Largest full-vector coefficient cache apply_plan builds, in bytes; a plan
# whose distinct paired steps would need more runs in the layout form.
_FULL_FORM_BYTES = 4 << 20


def _step_coefficients(diag_ptr, diag_idx, diag_h, pair_ptr, pair_lo,
                       pair_hi, pair_absa, pair_u, plan):
    """Coefficients (diag_idx, phase, lo, hi, c, b) of each distinct
    (piece, s) in `plan` whose piece has any entry, keyed on it.

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


def _layouts(cache, keys, dim):
    """The layout form of the plan steps `keys`: (home, steps).

    Piece t's layout is the basis order lo, hi, diagonal, rest.  Each rep
    starts and ends in the layout of the plan's last piece; home maps each
    basis index to its position there.  steps holds (t, move, phase, c, b)
    per step on piece t.  With u the piece of the step before (of the last
    step, for the first), move is None if t == u and (g, gather) if not:
    one int64 g per pair of pieces that follow each other in the plan, with
    state_t = state_u[g] if gather, else state_u = state_t[g], which
    dst[g] = src undoes.  phase, c and b are None when there is nothing of
    their kind to apply.
    """
    def order(key):
        idx, _, lo, hi, _, _ = cache[key]
        n = 2 * lo.size + idx.size
        perm = np.empty(dim, dtype=np.int64)
        np.concatenate((lo, hi, idx), out=perm[:n])
        rest = np.ones(dim, dtype=bool)
        rest[perm[:n]] = False
        perm[n:] = np.flatnonzero(rest)
        return perm

    def inverse(perm):
        inv = np.empty(dim, dtype=np.int64)
        inv[perm] = np.arange(dim)
        return inv

    moves = {}
    steps = []
    prev = keys[-1]
    # layouts are built as the plan needs them, keeping only the latest:
    # all at once would hold 8 B x dim per piece
    latest = None, None
    for key in keys:
        t, u = key[0], prev[0]
        if t == u:
            move = None
        elif (t, u) in moves:
            move = moves[t, u], False
        else:
            if (u, t) not in moves:
                inv = inverse(latest[1] if latest[0] == u else order(prev))
                latest = t, order(key)
                moves[u, t] = inv[latest[1]]
            move = moves[u, t], True
        idx, phase, lo, _, c, b = cache[key]
        steps.append((t, move, phase if idx.size else None,
                      c if lo.size else None, b if lo.size else None))
        prev = key
    return inverse(order(prev)), steps


def _run_full_vector(psi, cache, keys, reps):
    """The reps x steps loop in full-vector form, on psi in place."""
    cache = _full_vector(cache, psi.size)
    steps = [cache[key] for key in keys]
    buf = np.empty_like(psi)
    take, multiply, add = psi.take, np.multiply, np.add
    for _ in range(reps):
        for idx, phase, partner, C, B in steps:
            if idx.size:
                psi[idx] *= phase
            if partner is not None:
                take(partner, None, buf, "clip")
                # B first, as in b * y (C is real-valued, so psi * C
                # rounds as c * x does)
                multiply(B, buf, buf)
                multiply(psi, C, psi)
                add(psi, buf, psi)


def _run_layouts(psi, cache, keys, reps):
    """The reps x steps loop in layout form, on psi in place."""
    home, steps = _layouts(cache, keys, psi.size)
    pairs = max((c.size for _, _, _, c, _ in steps if c is not None),
                default=0)
    scratch = np.empty(pairs, dtype=np.complex128)
    # the state moves between a new buffer and psi itself
    bufs = (np.empty_like(psi), psi)
    # views[k][t]: piece t's lo, hi and diagonal blocks in buffer k, its lo
    # and hi blocks in the other buffer, and scratch of its pair count
    views = ({}, {})
    for t, _, phase, c, _ in steps:
        p = 0 if c is None else c.size
        d = 0 if phase is None else phase.size
        for k in (0, 1):
            cur, other = bufs[k], bufs[1 - k]
            views[k][t] = (cur[:p], cur[p:2 * p], cur[2 * p:2 * p + d],
                           other[:p], other[p:2 * p], scratch[:p])
    bufs[0][home] = psi
    k = 0
    for _ in range(reps):
        for t, move, phase, c, b in steps:
            if move is not None:
                g, gather = move
                if gather:
                    bufs[k].take(g, out=bufs[1 - k], mode="clip")
                else:
                    bufs[1 - k][g] = bufs[k]
                k = 1 - k
            x, y, d, u, v, w = views[k][t]
            if phase is not None:
                d *= phase
            if c is not None:
                # c x + b y and c y - conj(b) x through the other buffer
                # and scratch: no product writes into one of its inputs
                np.conjugate(b, out=u)
                np.multiply(u, x, out=v)
                np.multiply(c, x, out=u)
                np.multiply(b, y, out=w)
                np.add(u, w, out=x)
                np.multiply(c, y, out=u)
                np.subtract(u, v, out=y)
    if k:  # the state is in psi, in the last piece's layout
        np.copyto(bufs[0], psi)
    bufs[0].take(home, out=psi, mode="clip")


def apply_plan(psi, diag_ptr, diag_idx, diag_h, pair_ptr, pair_lo, pair_hi,
               pair_absa, pair_u, step_term, step_s, reps):
    """Run `reps` repetitions of the plan on psi, in place.

    psi is a contiguous complex128 vector of length dim; the packed arrays
    are those of the module docstring, and step i of the plan is the
    exponential of piece step_term[i] for scaled time step_s[i].  The call
    returns None and leaves the result in psi, which it also uses as a
    work buffer along the way.  It runs on the whole of psi, dim =
    psi.size: a caller whose pieces leave states alone passes only the
    states they act on, as parity.run_parity does.  It takes the
    full-vector form when distinct paired steps x dim x 32 B fit in
    _FULL_FORM_BYTES and the layout form otherwise; both give the same
    state bit for bit.
    """
    plan = list(zip(step_term.tolist(), step_s.tolist()))
    cache = _step_coefficients(diag_ptr, diag_idx, diag_h, pair_ptr, pair_lo,
                               pair_hi, pair_absa, pair_u, plan)
    keys = [key for key in plan if key in cache]
    paired = sum(1 for coefficients in cache.values() if coefficients[2].size)
    run = (_run_full_vector if paired * psi.size * 32 <= _FULL_FORM_BYTES
           else _run_layouts)
    run(psi, cache, keys, reps)
