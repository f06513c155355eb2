"""Black-box access to d-sparse Hermitian Hamiltonians, with query counting.

An oracle answers row queries: query(x, i) returns the i-th nonzero entry of
row x as (column index y, value H[x, y]), with 1 <= i <= d, and pads with
(x, 0) past the actual degree.  Nonzero slots always come first.  Every
query() call with a vertex and slot in range bumps an exact, monotone,
thread-safe counter before its answer is checked.  The counter keeps one
tally per thread, so a count takes no lock and no two threads ever write
the same tally; a thread can also read what it alone has spent.
The one verification bridge, to_dense (through read_entries), goes
through the uncounted peek() so measured query complexity reflects the
algorithms alone.
entries_from_slots is the one check of an oracle's rows, read or built:
from_columns lays out the rows it is given as slot arrays and passes them
in, and a read's slots pass it whole, mirrors checked exactly.  A run that
needs the pieces calls coloring.decompose, which reads each slot once
through query() and checks that read once, before any piece table is
built from it.  That holds with verification off too (decompose
--no-verify).  decompose returns one Decomposition of the read, holding
the checked entries, the piece tables and the queries spent, and
verification takes that value whole.
Neither query() nor peek() memoises answers: an oracle's function may
itself spend counted queries (parity's pieces read hidden bits), and each
call must spend them.
"""

from __future__ import annotations

import operator
import os
import struct
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

    def increment(self) -> None:
        self._tally.cell[0] += 1

    def reset(self) -> None:
        with self._lock:
            self._offset = sum(cell[0] for cell in self._cells)


# int64 numbers the vertices, so a vertex set has at most 2^63 of them
_MAX_WIDTH = 63


def _check_width(n: int) -> None:
    """Refuse a vertex width n outside 1.._MAX_WIDTH before anything is
    shifted by it: 1 << n for a huge n asks for an n-bit number."""
    if n < 1:
        raise OracleError(f"need at least one vertex bit, got n={n}")
    if n > _MAX_WIDTH:
        raise OracleError(f"dimension 2^{n} exceeds 2^{_MAX_WIDTH}, the most "
                          f"vertices int64 can number")


class SparseOracle:
    """Counted query access to a d-sparse Hermitian matrix on n bits.

    query() is the inner step of every piece lookup, so it tests vertex and
    slot in one comparison and returns an answer that is already an in-range
    (int, complex) as it is; anything else takes peek()'s checked path, which
    converts the answer or raises OracleError with the same messages.
    """

    def __init__(self, n: int, d: int,
                 fn: Callable[[int, int], tuple[int, complex]]) -> None:
        _check_width(n)
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
    """Serializable description: entries are (x, y, H[x, y]) with x <= y.

    Checked here is only what the text format itself needs: a header with
    1 <= n <= 63 and 1 <= d <= 2^n, every x and y in range, and x <= y.
    Whether the entries make a valid row set is checked where every row set is
    checked, when from_entry_list builds the oracle: at most d entries per
    row and no explicit zero in from_columns, and no duplicate pair,
    finite values and real diagonals in entries_from_slots.
    """

    n: int
    d: int
    entries: tuple[tuple[int, int, complex], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not (1 <= self.n <= _MAX_WIDTH and 1 <= self.d <= 1 << self.n):
            raise OracleError(f"bad header n={self.n} d={self.d}: need "
                              f"1 <= n <= {_MAX_WIDTH} and 1 <= d <= 2^n")
        dim = 1 << self.n
        for x, y, _ in self.entries:
            if not (0 <= x < dim and 0 <= y < dim):
                raise OracleError(f"entry ({x}, {y}) out of range")
            if x > y:
                raise OracleError(f"entry ({x}, {y}) must be stored with x <= y")


_POINTER = struct.calcsize("P")


def check_memory(what: str, count: int, unit: str, unit_bytes: int) -> None:
    """Refuse, before it starts, an allocation of count units of at least
    unit_bytes each that the machine's physical memory cannot hold."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if count * unit_bytes > memory:
        raise OracleError(
            f"{what} exceeds memory: {count} {unit} x {unit_bytes} bytes "
            f"> {memory} bytes of physical memory")


# per slot of a full read (read_slots, or extract_table, whose columns are
# one slot each), held at once while vs is built: a pointer in the list of
# answers and one in the list vs is built from, an int64 of ys and a
# complex128 of vs; the answers themselves come on top
SLOT_BYTES = (2 * _POINTER + np.dtype(np.int64).itemsize
              + np.dtype(np.complex128).itemsize)


def _index(value, dim: int, what: str) -> int:
    """value as a vertex number in [0, dim); what names it in messages,
    with {} where the value goes."""
    try:
        index = operator.index(value)
    except TypeError:
        raise OracleError(
            f"{what.format(repr(value))} is not an integer") from None
    if not 0 <= index < dim:
        raise OracleError(f"{what.format(index)} out of range")
    return index


def from_columns(n: int, d: int,
                 columns: dict[int, list[tuple[int, complex]]]
                 ) -> SparseOracle:
    """Oracle over explicit per-row neighbor lists.

    Slot i of row x holds the i-th neighbor of x in the order given, so a
    caller that wants ascending slots sorts its rows first.  The given
    rows, and only those, are laid out as slot arrays and pass
    entries_from_slots, the check every read passes: no duplicates,
    finite values, Hermitian pairs and real diagonals, and an exact
    mirror for every entry.  Refused here first is what a slot read
    cannot see: a vertex or neighbor that is not an integer in range,
    more than d entries in a row, and an explicit zero, which would read
    as padding at the end of its own row.
    """
    slots: dict[int, list[tuple[int, complex]]] = {}

    def fn(x: int, i: int) -> tuple[int, complex]:
        row = slots.get(x)
        return (x, 0j) if row is None else row[i - 1]

    oracle = SparseOracle(n, d, fn)
    for x, row in columns.items():
        x = _index(x, oracle.dim, "vertex {}")
        if len(row) > d:
            raise OracleError(f"row {x} has {len(row)} neighbors, exceeds d={d}")
        out = []
        for y, v in row:
            y = _index(y, oracle.dim, f"neighbor {{}} of {x}")
            v = complex(v)
            if v == 0:
                raise OracleError(f"explicit zero entry at ({x}, {y})")
            out.append((y, v))
        slots[x] = out + [(x, 0j)] * (d - len(out))
    xs = sorted(slots)
    ys = np.array([[y for y, _ in slots[x]] for x in xs], dtype=np.int64)
    vs = np.array([[v for _, v in slots[x]] for x in xs], dtype=np.complex128)
    entries_from_slots(ys.reshape(-1, d), vs.reshape(-1, d),
                       np.array(xs, dtype=np.int64))
    return oracle


def from_entry_list(el: EntryList) -> SparseOracle:
    """Oracle from a validated entry list (mirror entries are implied),
    each row's neighbors in ascending order."""
    columns: dict[int, list[tuple[int, complex]]] = {}
    # taken in (x, y) order, x <= y, row y gets the mirrors of its (x, y),
    # x < y, in ascending x, then its own (y, z) in ascending z >= y
    for x, y, v in sorted(el.entries, key=lambda e: e[:2]):
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
    slot i, padding included.  A read whose dim * d slots physical memory
    cannot hold is refused before the first query."""
    dim, d = oracle.dim, oracle.d
    check_memory(f"full read of dim*d = 2^{oracle.n}*{d}", dim * d, "slots",
                 SLOT_BYTES)
    slots = [read(x, i) for x in range(dim) for i in range(1, d + 1)]
    ys = np.array([y for y, _ in slots], dtype=np.int64).reshape(dim, d)
    vs = np.array([v for _, v in slots], dtype=np.complex128).reshape(dim, d)
    return ys, vs


def read_entries(oracle: SparseOracle
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uncounted read of every stored entry: entries_from_slots of a
    read_slots through peek.  No dense cap applies; read_slots' memory
    rule does."""
    return entries_from_slots(*read_slots(oracle, oracle.peek))


def entries_from_slots(ys: np.ndarray, vs: np.ndarray,
                       xs: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every stored entry of read_slots' arrays as (rows, cols, vals).

    Row r of the arrays is vertex xs[r], vertex r by default.  Entries come
    row by row in slot order, padding dropped.  This is the one check of
    an oracle's rows, read or built: padding only after the nonzero slots,
    no duplicate neighbors, no explicit zeros, finite values, Hermitian
    pairs and real diagonals within TOL.hermiticity (a missing mirror
    counts as 0 there), and then a stored mirror for every entry, exactly.
    Entries are keyed on the ranks of the vertex numbers, which are the
    numbers themselves for a full read, so a few rows of a large oracle
    are checked as exactly as a full read.  Piece tables are built only
    from a read that has passed it.
    """
    rows_in, d = ys.shape
    if xs is None:
        xs = np.arange(rows_in, dtype=np.int64)
    xs = np.broadcast_to(xs[:, None], (rows_in, d))
    ids, rank = np.unique(np.concatenate([xs[:, 0], ys.ravel()]),
                          return_inverse=True)
    m = ids.size
    rx = rank[:rows_in, None]
    ry = rank[rows_in:].reshape(rows_in, d)
    pad = (ys == xs) & (vs == 0)
    after_pad = ~pad & np.logical_or.accumulate(pad, axis=1)
    keys = rx * m + ry
    # a repeat of an earlier non-padding key in the same row; keys are in
    # row-major slot order, so the stable sort puts the earlier slot first
    flat = keys.ravel()
    order = np.argsort(flat, kind="stable")
    repeat = np.zeros(flat.size, dtype=bool)
    repeat[order[1:]] = flat[order[1:]] == flat[order[:-1]]
    duplicate = repeat.reshape(rows_in, d) & ~pad
    zero = ~pad & (vs == 0)
    bad = after_pad | duplicate | zero
    if bad.any():
        r, i = divmod(int(np.flatnonzero(bad)[0]), d)
        x = xs[r, 0]
        if after_pad[r, i]:
            raise OracleError(f"row {x}: nonzero slot {i + 1} after padding")
        if duplicate[r, i]:
            raise OracleError(f"row {x}: duplicate neighbor {ys[r, i]}")
        raise OracleError(f"row {x}: explicit zero at slot {i + 1}")
    keep = ~pad
    rows, cols, vals = xs[keep], ys[keep], vs[keep]
    if not np.all(np.isfinite(vals)):
        at = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise OracleError(f"non-finite entry at ({rows[at]}, {cols[at]})")
    if vals.size:
        # |H[x, y] - conj(H[y, x])| at every stored (x, y)
        order = np.argsort(keys[keep])
        sorted_keys, sorted_vals = keys[keep][order], vals[order]
        want = (ry * m + rx)[keep]
        at = np.searchsorted(sorted_keys, want).clip(max=vals.size - 1)
        found = sorted_keys[at] == want
        mirror = np.where(found, sorted_vals[at], 0)
        dev = float(np.abs(vals - mirror.conj()).max())
        if dev > TOL.hermiticity:
            raise OracleError(
                f"oracle is not Hermitian: max deviation {dev:.3e}")
        if not found.all():
            at = int(np.flatnonzero(~found)[0])
            raise OracleError(f"entry ({rows[at]}, {cols[at]}) has no "
                              f"mirror at row {cols[at]}")
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
    keeps at most d nonzeros, in ascending order of neighbor.  With
    norm_target the whole matrix is rescaled to that spectral norm
    (requires the dimension to be under the dense cap).
    A dimension 2^n whose per-vertex lists physical memory cannot hold is
    refused before they are allocated.
    """
    _check_width(n)
    # per vertex, before any entry: a pointer in neighbors and the empty
    # set neighbors[x] starts as
    check_memory(f"dimension 2^{n}", 1 << n, "vertices",
                 _POINTER + sys.getsizeof(set()))
    if seed < 0:
        raise OracleError(f"seed must be nonnegative, got {seed}")
    if norm_target is not None and not (norm_target > 0 and np.isfinite(norm_target)):
        raise OracleError(
            f"norm target must be finite and positive, got {norm_target}")
    rng = np.random.default_rng(seed)
    dim = 1 << n
    neighbors: list[set[int]] = [set() for _ in range(dim)]
    columns: dict[int, list[tuple[int, complex]]] = {}

    def add(x: int, y: int, v: complex) -> None:
        columns.setdefault(x, []).append((y, v))
        neighbors[x].add(y)
        if y != x:
            columns.setdefault(y, []).append((x, v.conjugate()))
            neighbors[y].add(x)

    for x in range(dim):
        # row x is still empty, and every d an oracle accepts is >= 1
        if rng.random() < 0.25:
            add(x, x, complex(rng.uniform(-1.0, 1.0)))
    for _ in range(3 * d * dim):
        x = int(rng.integers(dim))
        y = int(rng.integers(dim))
        if (x == y or len(neighbors[x]) >= d or len(neighbors[y]) >= d
                or y in neighbors[x]):
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
    return from_columns(n, d, {x: sorted(row, key=lambda e: e[0])
                               for x, row in columns.items()})
