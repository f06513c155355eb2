"""Black-box access to d-sparse Hermitian Hamiltonians, with query counting.

An oracle answers row queries: query(x, i) returns the i-th nonzero entry of
row x as (column index y, value H[x, y]), with 1 <= i <= d, and pads with
(x, 0) past the actual degree.  Nonzero slots always come first.  Every
query() call with a vertex and slot in range bumps an exact, monotone,
thread-safe counter before its answer is checked.  The counter keeps one
tally per thread, so a count takes no lock and no two threads ever write
the same tally; a thread can also read what it alone has spent.
Verification bridges (read_entries and the dense and entry-list extractions
built on it) go through the uncounted peek() so measured query complexity
reflects the algorithms alone.
A run that needs the pieces reads each slot once through query() and
checks that read once, with entries_from_slots, before any piece table is
built from it; the checked entries of the same read serve verification.
That holds with verification off too (decompose --no-verify).
Neither query() nor peek() memoises answers: an oracle's function may
itself spend counted queries (parity's pieces read hidden bits), and each
call must spend them.
"""

from __future__ import annotations

import operator
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .config import TOL, OracleError, dense_cap


class _Tally(threading.local):
    """One thread's tally cell; __init__ runs in each thread on its first
    use, once per thread per counter, and registers the cell."""

    def __init__(self, cells: list[list[int]], lock: threading.Lock) -> None:
        self.cell = cell = [0]
        with lock:
            cells.append(cell)


class QueryCounter:
    """Exact, monotone, thread-safe call counter kept in per-thread tallies.

    Each thread that counts owns one cell, a one-element list registered
    under the lock the first time that thread counts.  increment() adds to
    the caller's own cell and takes no lock: only the owner ever writes a
    cell, so no two threads race on one read-add-write and no increment is
    lost, whatever the interpreter's thread switching (free-threaded builds
    included).  count is the sum of the cells less the offset reset()
    recorded.  reset() reads the cells under the lock and writes none of
    them, so count reads 0 right after it and every later increment shows.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cells: list[list[int]] = []
        self._offset = 0
        self._tally = _Tally(self._cells, self._lock)

    @property
    def count(self) -> int:
        with self._lock:
            return sum(cell[0] for cell in self._cells) - self._offset

    def thread_tally(self) -> list[int]:
        """The calling thread's cell, to be read, not written: [0] is all
        this thread has counted here.  reset() leaves it alone, so a thread
        measures its spend as a difference of two reads."""
        return self._tally.cell

    def increment(self, by: int = 1) -> None:
        self._tally.cell[0] += by

    def reset(self) -> None:
        with self._lock:
            self._offset = sum(cell[0] for cell in self._cells)


class SparseOracle:
    """Counted query access to a d-sparse Hermitian matrix on n bits.

    query() is the inner step of every piece lookup, so it tests vertex and
    slot in one comparison and returns an answer that is already an in-range
    (int, complex) as it is; anything else takes peek()'s checked path, which
    converts the answer or raises OracleError with the same messages.
    """

    def __init__(self, n: int, d: int,
                 fn: Callable[[int, int], tuple[int, complex]]) -> None:
        if n < 1:
            raise OracleError(f"need at least one vertex bit, got n={n}")
        if not 1 <= d <= (1 << n):
            raise OracleError(f"degree bound d={d} out of range for n={n}")
        self.n = n
        self.d = d
        self.dim = 1 << n
        self._fn = fn
        self.counter = QueryCounter()

    def _check_args(self, x: int, i: int) -> None:
        if not 0 <= x < self.dim:
            raise OracleError(f"vertex {x} out of range for n={self.n}")
        if not 1 <= i <= self.d:
            raise OracleError(f"slot {i} out of range for d={self.d}")

    def _answer(self, x: int, i: int, y, v) -> tuple[int, complex]:
        """The function's answer at (x, i) as (int, complex), checked."""
        try:
            y = operator.index(y)
        except TypeError:
            raise OracleError(f"neighbor {y!r} of vertex {x} in slot {i} "
                              f"is not an integer") from None
        if not 0 <= y < self.dim:
            raise OracleError(
                f"neighbor {y} of vertex {x} out of range for n={self.n}")
        return y, complex(v)

    def query(self, x: int, i: int) -> tuple[int, complex]:
        """Counted query: (y, H[x, y]) for the i-th nonzero of row x."""
        if not (0 <= x < self.dim and 1 <= i <= self.d):
            self._check_args(x, i)
        self.counter._tally.cell[0] += 1      # increment(), inlined
        y, v = self._fn(x, i)
        if type(y) is int and type(v) is complex and 0 <= y < self.dim:
            return y, v
        return self._answer(x, i, y, v)

    def peek(self, x: int, i: int) -> tuple[int, complex]:
        """Uncounted access for verification and serialization bridges."""
        self._check_args(x, i)
        y, v = self._fn(x, i)
        return self._answer(x, i, y, v)

    def column(self, x: int) -> tuple[int, complex]:
        """Single counted probe, the 1-sparse piece interface (d must be 1)."""
        if self.d != 1:
            raise OracleError(f"column() needs a 1-sparse oracle, d={self.d}")
        return self.query(x, 1)


@dataclass(frozen=True)
class EntryList:
    """Serializable description: entries are (x, y, H[x, y]) with x <= y."""

    n: int
    d: int
    entries: tuple[tuple[int, int, complex], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        dim = 1 << self.n
        if self.n < 1 or not 1 <= self.d <= dim:
            raise OracleError(f"bad header n={self.n} d={self.d}")
        seen: set[tuple[int, int]] = set()
        for x, y, v in self.entries:
            if not (0 <= x < dim and 0 <= y < dim):
                raise OracleError(f"entry ({x}, {y}) out of range")
            if x > y:
                raise OracleError(f"entry ({x}, {y}) must be stored with x <= y")
            if (x, y) in seen:
                raise OracleError(f"duplicate entry for pair ({x}, {y})")
            seen.add((x, y))
            v = complex(v)
            if v == 0:
                raise OracleError(f"zero value stored for pair ({x}, {y})")
            if not (np.isfinite(v.real) and np.isfinite(v.imag)):
                raise OracleError(f"non-finite value for pair ({x}, {y})")
            if x == y and abs(v - v.conjugate()) > TOL.hermiticity:
                raise OracleError(f"diagonal entry at {x} must be real, got {v}")


def _columns_fn(columns: dict[int, list[tuple[int, complex]]]
                ) -> Callable[[int, int], tuple[int, complex]]:
    def fn(x: int, i: int) -> tuple[int, complex]:
        row = columns.get(x)
        if row is not None and i <= len(row):
            return row[i - 1]
        return (x, 0j)

    return fn


def from_columns(n: int, d: int,
                 columns: dict[int, list[tuple[int, complex]]],
                 sort: bool = True) -> SparseOracle:
    """Oracle over explicit per-row neighbor lists.

    With sort=True (canonical) neighbors are ordered by ascending index;
    sort=False keeps the given order, which lets tests pin down arbitrary
    but stable slot layouts.  Validates range, degree, duplicates, and
    Hermitian pair consistency.
    """
    dim = 1 << n
    cols: dict[int, list[tuple[int, complex]]] = {}
    for x, row in columns.items():
        if not 0 <= x < dim:
            raise OracleError(f"vertex {x} out of range")
        if len(row) > d:
            raise OracleError(f"row {x} has {len(row)} neighbors, exceeds d={d}")
        seen: set[int] = set()
        out = []
        for y, v in row:
            if not 0 <= y < dim:
                raise OracleError(f"neighbor {y} of {x} out of range")
            if y in seen:
                raise OracleError(f"duplicate neighbor {y} in row {x}")
            seen.add(y)
            v = complex(v)
            if v == 0:
                raise OracleError(f"explicit zero entry at ({x}, {y})")
            if not (np.isfinite(v.real) and np.isfinite(v.imag)):
                raise OracleError(f"non-finite entry at ({x}, {y})")
            if y == x and abs(v - v.conjugate()) > TOL.hermiticity:
                raise OracleError(f"diagonal entry at {x} must be real, got {v}")
            out.append((y, v))
        if sort:
            out.sort(key=lambda e: e[0])
        if out:
            cols[x] = out
    # Hermitian pair consistency: presence and conjugate values both ways.
    lookup = {x: dict(row) for x, row in cols.items()}
    for x, row in cols.items():
        for y, v in row:
            if y == x:
                continue
            back = lookup.get(y, {})
            if x not in back:
                raise OracleError(f"entry ({x}, {y}) has no mirror at row {y}")
            if abs(back[x] - v.conjugate()) > TOL.hermiticity:
                raise OracleError(
                    f"non-Hermitian pair ({x}, {y}): {v} vs {back[x]}")
    return SparseOracle(n, d, _columns_fn(cols))


def from_entry_list(el: EntryList) -> SparseOracle:
    """Oracle from a validated entry list (mirror entries are implied)."""
    columns: dict[int, list[tuple[int, complex]]] = {}
    for x, y, v in el.entries:
        v = complex(v)
        columns.setdefault(x, []).append((y, v))
        if y != x:
            columns.setdefault(y, []).append((x, v.conjugate()))
    return from_columns(el.n, el.d, columns)


def read_slots(oracle: SparseOracle,
               read: Callable[[int, int], tuple[int, complex]]
               ) -> tuple[np.ndarray, np.ndarray]:
    """Every slot of the oracle, each read once through read (its query or
    its peek), as (dim, d) neighbor and value arrays; column i - 1 holds
    slot i, padding included."""
    dim, d = oracle.dim, oracle.d
    slots = [read(x, i) for x in range(dim) for i in range(1, d + 1)]
    ys = np.array([y for y, _ in slots], dtype=np.int64).reshape(dim, d)
    vs = np.array([v for _, v in slots], dtype=np.complex128).reshape(dim, d)
    return ys, vs


def read_entries(oracle: SparseOracle
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uncounted read of every stored entry: entries_from_slots of a
    read_slots through peek, with no dense cap."""
    return entries_from_slots(*read_slots(oracle, oracle.peek))


def entries_from_slots(ys: np.ndarray, vs: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every stored entry of read_slots' arrays as (rows, cols, vals).

    Entries come row by row in slot order, padding dropped.  Checks on the
    way: padding only after the nonzero slots, no duplicate neighbors, no
    explicit zeros, finite values, and Hermitian pairing within
    TOL.hermiticity, found by matching the sorted (x, y) keys against the
    (y, x) keys.  It is the one structural check of a read: piece tables
    are built only from a read that has passed it.
    """
    dim, d = ys.shape
    xs = np.broadcast_to(np.arange(dim, dtype=np.int64)[:, None], (dim, d))
    pad = (ys == xs) & (vs == 0)
    after_pad = ~pad & np.logical_or.accumulate(pad, axis=1)
    keys = xs * dim + ys
    # a repeat of an earlier non-padding key in the same row; keys are in
    # row-major slot order, so the stable sort puts the earlier slot first
    flat = keys.ravel()
    order = np.argsort(flat, kind="stable")
    repeat = np.zeros(flat.size, dtype=bool)
    repeat[order[1:]] = flat[order[1:]] == flat[order[:-1]]
    duplicate = repeat.reshape(dim, d) & ~pad
    zero = ~pad & (vs == 0)
    bad = after_pad | duplicate | zero
    if bad.any():
        x, i = divmod(int(np.flatnonzero(bad)[0]), d)
        if after_pad[x, i]:
            raise OracleError(f"row {x}: nonzero slot {i + 1} after padding")
        if duplicate[x, i]:
            raise OracleError(f"row {x}: duplicate neighbor {ys[x, i]}")
        raise OracleError(f"row {x}: explicit zero at slot {i + 1}")
    keep = ~pad
    rows, cols, vals = xs[keep], ys[keep], vs[keep]
    if not np.all(np.isfinite(vals)):
        at = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise OracleError(f"non-finite entry at ({rows[at]}, {cols[at]})")
    if vals.size:
        # |H[x, y] - conj(H[y, x])| at every stored (x, y); a missing
        # mirror counts as 0, as it would in the dense matrix
        order = np.argsort(keys[keep])
        sorted_keys, sorted_vals = keys[keep][order], vals[order]
        want = cols * dim + rows
        at = np.searchsorted(sorted_keys, want).clip(max=vals.size - 1)
        mirror = np.where(sorted_keys[at] == want, sorted_vals[at], 0)
        dev = float(np.abs(vals - mirror.conj()).max())
        if dev > TOL.hermiticity:
            raise OracleError(
                f"oracle is not Hermitian: max deviation {dev:.3e}")
    return rows, cols, vals


def _zeros_below_cap(dim: int) -> np.ndarray:
    """A dim x dim zero matrix, refused above the dense cap."""
    if dim > dense_cap():
        raise OracleError(f"dimension {dim} exceeds dense cap {dense_cap()}")
    return np.zeros((dim, dim), dtype=complex)


def to_dense(oracle: SparseOracle) -> np.ndarray:
    """Uncounted full extraction: read_entries, with its structural checks,
    scattered into a dense matrix below the dense cap."""
    H = _zeros_below_cap(oracle.dim)
    rows, cols, vals = read_entries(oracle)
    H[rows, cols] = vals
    return H


def to_entry_list(oracle: SparseOracle) -> EntryList:
    """Uncounted extraction to the canonical x <= y entry list."""
    rows, cols, vals = read_entries(oracle)
    upper = rows <= cols
    rows, cols, vals = rows[upper], cols[upper], vals[upper]
    order = np.lexsort((cols, rows))
    entries = zip(rows[order].tolist(), cols[order].tolist(),
                  vals[order].tolist())
    return EntryList(oracle.n, oracle.d, tuple(entries))


def entry_list_to_text(el: EntryList) -> str:
    """Text form: header line `n d`, then `x y re im` per entry.

    Values are printed with 17 significant digits, which round-trips IEEE
    doubles exactly.
    """
    lines = [f"{el.n} {el.d}"]
    for x, y, v in el.entries:
        lines.append(f"{x} {y} {v.real:.17g} {v.imag:.17g}")
    return "\n".join(lines) + "\n"


def text_to_entry_list(text: str) -> EntryList:
    """Parse the entry-list format; blank lines and `#` comments are skipped."""
    header: tuple[int, int] | None = None
    entries: list[tuple[int, int, complex]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if header is None:
                if len(parts) != 2:
                    raise ValueError("expected `n d`")
                header = (int(parts[0]), int(parts[1]))
            else:
                if len(parts) != 4:
                    raise ValueError("expected `x y re im`")
                x, y = int(parts[0]), int(parts[1])
                v = complex(float(parts[2]), float(parts[3]))
                if x > y:
                    x, y, v = y, x, v.conjugate()
                entries.append((x, y, v))
        except ValueError as exc:
            raise OracleError(f"line {ln}: {exc} (got {raw!r})") from exc
    if header is None:
        raise OracleError("missing `n d` header line")
    return EntryList(header[0], header[1], tuple(entries))


def save_entry_list(el: EntryList, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(entry_list_to_text(el))


def load_entry_list(path: str) -> EntryList:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise OracleError(f"cannot read entry list {path!r}: {exc}") from exc
    return text_to_entry_list(text)


def random_sparse(n: int, d: int, seed: int,
                  norm_target: float | None = None) -> SparseOracle:
    """Random d-sparse Hermitian oracle, deterministic in the seed.

    Mixes real diagonal entries with complex off-diagonal pairs; every row
    keeps at most d nonzeros.  With norm_target the whole matrix is rescaled
    to that spectral norm (requires the dimension to be under the dense cap).
    """
    if n < 1:
        raise OracleError(f"need at least one vertex bit, got n={n}")
    if 1 << n > sys.maxsize:
        # the per-vertex lists below could not be allocated
        raise OracleError(
            f"dimension 2^{n} exceeds the largest index, {sys.maxsize}")
    if seed < 0:
        raise OracleError(f"seed must be nonnegative, got {seed}")
    if norm_target is not None and not (norm_target > 0 and np.isfinite(norm_target)):
        raise OracleError(
            f"norm target must be finite and positive, got {norm_target}")
    rng = np.random.default_rng(seed)
    dim = 1 << n
    deg = [0] * dim
    neighbors: list[set[int]] = [set() for _ in range(dim)]
    columns: dict[int, list[tuple[int, complex]]] = {}

    def add(x: int, y: int, v: complex) -> None:
        columns.setdefault(x, []).append((y, v))
        neighbors[x].add(y)
        deg[x] += 1
        if y != x:
            columns.setdefault(y, []).append((x, v.conjugate()))
            neighbors[y].add(x)
            deg[y] += 1

    for x in range(dim):
        if rng.random() < 0.25 and deg[x] < d:
            add(x, x, complex(rng.uniform(-1.0, 1.0)))
    for _ in range(3 * d * dim):
        x = int(rng.integers(dim))
        y = int(rng.integers(dim))
        if x == y or deg[x] >= d or deg[y] >= d or y in neighbors[x]:
            continue
        add(min(x, y), max(x, y),
            complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))

    if norm_target is not None:
        H = _zeros_below_cap(dim)
        for x, row in columns.items():
            ys, vs = zip(*row)
            H[x, list(ys)] = vs
        # Hermitian, so the largest |eigenvalue| is the spectral norm
        cur = float(np.abs(np.linalg.eigvalsh(H)).max())
        if cur == 0.0:
            raise OracleError("random instance came out empty, cannot rescale")
        scale = norm_target / cur
        columns = {x: [(y, v * scale) for y, v in row]
                   for x, row in columns.items()}
    return from_columns(n, d, columns, sort=True)


def shuffled_columns(oracle: SparseOracle, seed: int) -> SparseOracle:
    """Same Hamiltonian, each row's slot order permuted (deterministically).

    Exercises the promise that algorithms must not rely on any particular
    neighbor order, only on its stability.
    """
    if seed < 0:
        raise OracleError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    columns: dict[int, list[tuple[int, complex]]] = {}
    for x, y, v in zip(*(a.tolist() for a in read_entries(oracle))):
        columns.setdefault(x, []).append((y, v))
    columns = {x: [row[j] for j in rng.permutation(len(row))]
               for x, row in columns.items()}
    return from_columns(oracle.n, oracle.d, columns, sort=False)
