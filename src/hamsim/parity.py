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

from .config import OracleError
from .numerics import pure_state_distance
# unused here since plan_and_run applies the plan; bench/test_bench.py
# checks that a traced run restores this binding
from .one_sparse import apply_product_formula  # noqa: F401
from .one_sparse import extract_table
from .oracle import QueryCounter, SparseOracle
from .planner import check_request, plan_and_run


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


# the figures of plan_and_run that a parity run reports, by their names
_PLAN_FIGURES = ("k", "r", "n_exp", "r_rule", "r_paper", "r_commutator",
                 "error_bound", "quantize_bits")
# the loosest eps a run plans at: below 1/sqrt(2), a state within trace
# distance eps of |parity, N> has more weight on the right rail than on
# the wrong one, so the read-out parity is sure to be right
READOUT_EPS = 0.5


@dataclass(frozen=True)
class ParityRunResult:
    parity: int
    correct: bool
    trace_error: float
    eps: float
    k: int
    r: int
    n_exp: int
    bit_queries: int
    h_queries: int
    lower_bound_ok: bool
    r_rule: str
    r_paper: int
    r_commutator: int
    error_bound: float | None
    bound_slack: float | None
    quantize_bits: int | None
    warnings: tuple[str, ...]


def run_parity(instance: ParityInstance, eps: float,
               quantize_bits: int | str | None = None) -> ParityRunResult:
    """Simulate the ladder for time pi and read the parity off the rail.

    The two pieces, even first, go to planner.plan_and_run at norm N/2
    and d = 2, which takes the cheaper of two rules by exponential count:
    the commutator rule at k = 1 and the paper's (choose_k, then
    choose_r).  r_rule names the winner, r_paper and r_commutator each
    rule's r, and error_bound is plan_and_run's: at the chosen (k, r), the
    smaller of the paper's and the commutator bound that hold.  warnings
    holds suzuki.window_notes for the paper's rule: a note when choose_r
    was used outside its validity window.  A bad eps or quantize_bits
    is refused before a bit is read.
    The run plans at min(eps, READOUT_EPS), so error_bound is at most eps
    and 1/2, and an unquantized run reads the right parity at any eps.

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
    precision_bits(pi N/2, 2, k, min(eps, READOUT_EPS)); the result
    reports the count used.
    The pieces are rounded onto the grid (N/2) / 2^bits.
    """
    check_request(math.pi, eps, None, None, quantize_bits)
    N = instance.size
    bits_before = instance.counter.count
    even, odd = split_even_odd(instance)
    # the tables at the ladder's own dimension: their validation rejects
    # any index that reaches it
    ladder = 2 * (N + 1)
    tables = [replace(extract_table(p), dim=ladder) for p in (even, odd)]
    h_queries = even.counter.count + odd.counter.count
    bit_queries = instance.counter.count - bits_before

    psi = initial_state(N)
    figures, evolved, _ = plan_and_run(
        tables, math.pi, min(eps, READOUT_EPS), psi[:ladder], N / 2.0, 2,
        k=None, r=None, quantize=quantize_bits)
    psi[:ladder] = evolved

    top = state_index(N, 1, N)
    parity = int(abs(psi[top]) > abs(psi[state_index(N, 0, N)]))
    err = float(pure_state_distance(psi, exact_target_state(instance)))
    bound = figures["error_bound"]
    return ParityRunResult(
        parity=parity, correct=parity == instance.parity(), trace_error=err,
        eps=float(eps), bit_queries=bit_queries, h_queries=h_queries,
        lower_bound_ok=h_queries >= N / 4.0,
        bound_slack=err / bound if bound else None,
        warnings=tuple(figures["warnings"]),
        **{key: figures[key] for key in _PLAN_FIGURES})
