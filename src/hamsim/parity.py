"""Parity readout through sparse Hamiltonian evolution.

A hidden bitstring X of length N is wired into a two-rail ladder: states
|k, j> (k a parity rail, j a level, dimension 2(N+1) embedded in the next
power of two) couple level j to j+1 with strength sqrt((N-j)(j+1))/2, and
the rail flips exactly when X_{j+1} is set.  The ladder is a relabeled
pair of spin-N/2 ladder operators, so the norm is N/2 and running for time
pi carries |0, 0> exactly onto |parity(X), N>.  Reading the final rail
therefore computes the parity of X, while each matrix column reveals at
most two bits, which forces at least N/4 column queries for any method
that gets the parity from the matrix alone.

Level edges split by the parity of their lower level into two 1-sparse
pieces, so the evolution pipeline needs no coloring machinery here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .config import OracleError, PlanError
from .numerics import pure_state_distance
from .one_sparse import (apply_product_formula, check_bits, extract_table,
                         pack_tables, precision_bits, quantize_table)
from .oracle import QueryCounter, SparseOracle
from .suzuki import (build_plan, choose_r, choose_r_sharp,
                     integrator_error_bound_sharp)


class ParityInstance:
    """Hidden bitstring with counted bit access.

    bit(i) is 1-indexed and counted; parity() and bits are reference
    views for verification, never part of the query budget.
    """

    def __init__(self, bits: Sequence[int]) -> None:
        bits = tuple(int(b) for b in bits)
        if not bits:
            raise OracleError("empty bitstring")
        if any(b not in (0, 1) for b in bits):
            raise OracleError("bits must be 0 or 1")
        self._bits = bits
        self.counter = QueryCounter()

    @property
    def size(self) -> int:
        return len(self._bits)

    @property
    def bits(self) -> tuple[int, ...]:
        # reference view, uncounted like parity()
        return self._bits

    def bit(self, idx: int) -> int:
        if not 1 <= idx <= self.size:
            raise OracleError(f"bit index {idx} outside 1..{self.size}")
        self.counter.increment()
        return self._bits[idx - 1]

    def parity(self) -> int:
        return sum(self._bits) % 2


def register_bits(N: int) -> int:
    """Qubits needed to hold the 2(N+1) ladder states."""
    return (2 * (N + 1) - 1).bit_length()


def state_index(N: int, k: int, j: int) -> int:
    if k not in (0, 1) or not 0 <= j <= N:
        raise OracleError(f"bad ladder state k={k} j={j}")
    return k * (N + 1) + j


def _decode(N: int, x: int) -> tuple[int, int] | None:
    if x >= 2 * (N + 1):
        return None
    return divmod(x, N + 1)


def _edge(instance: ParityInstance, k: int, j: int,
          low: int) -> tuple[int, complex]:
    """Column entry of |k, j> on its edge between levels low and low + 1,
    which reads one hidden bit: the rail flips when bit low + 1 is set."""
    N = instance.size
    flip = instance.bit(low + 1)
    return (state_index(N, k ^ flip, 2 * low + 1 - j),
            complex(math.sqrt((N - low) * (low + 1)) / 2.0))


def _lower_levels(N: int, j: int) -> list[int]:
    """Lower levels of the edges at level j, the edge down first: j - 1
    when j > 0, then j when j < N."""
    return [low for low in (j - 1, j) if 0 <= low < N]


def build_parity_oracle(instance: ParityInstance) -> SparseOracle:
    """2-sparse oracle for the ladder; a column costs at most two bits.

    Slot 1 is the edge down to level j-1, slot 2 the edge up to j+1; each
    slot resolves with exactly one bit query, so a full column takes two.
    """
    N = instance.size
    n = register_bits(N)

    def fn(x: int, i: int) -> tuple[int, complex]:
        kj = _decode(N, x)
        if kj is None:
            return (x, 0j)
        k, j = kj
        lows = _lower_levels(N, j)
        if i > len(lows):
            return (x, 0j)
        return _edge(instance, k, j, lows[i - 1])

    return SparseOracle(n, 2, fn)


def split_even_odd(instance: ParityInstance
                   ) -> tuple[SparseOracle, SparseOracle]:
    """The ladder as two 1-sparse pieces, split by lower-level parity.

    A level-j state touches edges with lower levels j-1 and j, whose
    parities differ, so each piece holds at most one edge per column and
    resolving it costs exactly one bit query.
    """
    N = instance.size
    n = register_bits(N)

    def piece_fn(par: int):
        def fn(x: int, i: int) -> tuple[int, complex]:
            kj = _decode(N, x)
            if kj is None:
                return (x, 0j)
            k, j = kj
            for low in _lower_levels(N, j):
                if low % 2 == par:
                    return _edge(instance, k, j, low)
            return (x, 0j)

        return fn

    return (SparseOracle(n, 1, piece_fn(0)), SparseOracle(n, 1, piece_fn(1)))


def exact_target_state(instance: ParityInstance) -> np.ndarray:
    """Where time-pi evolution provably sends |0, 0>, up to a phase."""
    N = instance.size
    psi = np.zeros(1 << register_bits(N), dtype=np.complex128)
    psi[state_index(N, instance.parity(), N)] = 1.0
    return psi


def initial_state(N: int) -> np.ndarray:
    psi = np.zeros(1 << register_bits(N), dtype=np.complex128)
    psi[state_index(N, 0, 0)] = 1.0
    return psi


@dataclass(frozen=True)
class ParityRunResult:
    parity: int
    correct: bool
    trace_error: float
    eps: float
    r: int
    n_exp: int
    bit_queries: int
    h_queries: int
    lower_bound_ok: bool
    r_rule: str
    r_paper: int
    r_sharp: int
    error_bound: float | None
    bound_slack: float | None
    quantize_bits: int | None = None


def run_parity(instance: ParityInstance, eps: float,
               quantize_bits: int | str | None = None) -> ParityRunResult:
    """Simulate the ladder for time pi and read the parity off the rail.

    The slice count is the smaller of the paper's closed-form rule
    (choose_r) and the smallest r its sharp pre-form allows
    (choose_r_sharp), both at k = 1 for the two pieces; a tie goes to the
    paper's.  r_rule names the winner, and error_bound is the sharp bound
    at the chosen r, None where its linear restriction fails.

    Only the ladder's 2(N+1) states, which come first in the register,
    are evolved, and that is exact: the pieces have no entry on the
    padding states above them, so no ladder state couples to one, and the
    evolution leaves their zero amplitudes alone.  The readout and the
    trace error see the whole register vector.

    The target state is known in closed form, so the reported trace error
    is exact.  h_queries counts piece-column probes, bit_queries the hidden
    bits they consumed; any strategy needs at least N/4 column queries, and
    the run is checked against that floor.

    quantize_bits is None (off), a bit count, or "auto" for
    precision_bits at this tau, d = 2 and k = 1; the result reports the
    count used.  The pieces are rounded onto the grid (N/2) / 2^bits.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise PlanError(f"eps must be a finite positive number, got {eps}")
    N = instance.size
    tau = math.pi * N / 2.0  # time pi at norm N/2
    if quantize_bits == "auto":
        quantize_bits = precision_bits(tau, 2, 1, eps)
    elif quantize_bits is not None:
        check_bits(quantize_bits)
    r_paper = choose_r(1, 2, tau, eps)
    r_sharp = choose_r_sharp(1, 2, tau, eps)
    r_rule, r = ("sharp", r_sharp) if r_sharp < r_paper else ("paper", r_paper)
    bound = integrator_error_bound_sharp(1, 2, tau, r)
    plan = build_plan(1, 2)

    bits_before = instance.counter.count
    even, odd = split_even_odd(instance)
    # the tables at the ladder's own dimension: their validation rejects
    # any index that reaches it
    ladder = 2 * (N + 1)
    tables = [replace(extract_table(p), dim=ladder) for p in (even, odd)]
    if quantize_bits is not None:
        tables = [quantize_table(t, quantize_bits, N / 2.0) for t in tables]
    h_queries = even.counter.count + odd.counter.count
    bit_queries = instance.counter.count - bits_before

    psi = initial_state(N)
    psi[:ladder] = apply_product_formula(pack_tables(tables), plan, math.pi,
                                         r, psi[:ladder])

    top = state_index(N, 1, N)
    parity = int(abs(psi[top]) > abs(psi[state_index(N, 0, N)]))
    err = pure_state_distance(psi, exact_target_state(instance))
    return ParityRunResult(
        parity=parity,
        correct=parity == instance.parity(),
        trace_error=float(err),
        eps=float(eps),
        r=r,
        n_exp=r * len(plan.steps),
        bit_queries=bit_queries,
        h_queries=h_queries,
        lower_bound_ok=h_queries >= N / 4.0,
        r_rule=r_rule,
        r_paper=r_paper,
        r_sharp=r_sharp,
        error_bound=bound,
        bound_slack=float(err) / bound if bound else None,
        quantize_bits=quantize_bits,
    )
