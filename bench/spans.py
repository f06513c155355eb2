"""In-memory spans around hamsim's layer boundaries, and their self times.

A span is (id, name, parent, start, end, queries).  The benchmark opens a
root span around each set-up and each solve; inside a root, every call to
an instrumented function opens a child span named ``layer.function``.
Outside a root the wrappers call straight through, so output checks and
reference computations are never traced.

Instrumentation replaces module attributes, the names a caller resolves at
call time.  A function imported by name into several modules (``parity``
binds ``apply_product_formula`` at import, for example) is replaced in every
hamsim module that holds it, and ``Tracer.restore`` puts each one back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

# (span layer, defining module, attribute).  These are the boundaries
# between layers; the hot helpers below them (colored_query, upsilon, the
# halving steps) are left alone, so a solve opens about a hundred spans.
TARGETS = (
    ("cli", "hamsim.cli", "simulate_pipeline"),
    ("parity", "hamsim.parity", "run_parity"),
    ("parity", "hamsim.parity", "split_even_odd"),
    ("coloring", "hamsim.coloring", "verify_coloring"),
    ("coloring", "hamsim.coloring", "decompose"),
    ("oracle", "hamsim.oracle", "random_sparse"),
    ("oracle", "hamsim.oracle", "to_dense"),
    ("one_sparse", "hamsim.one_sparse", "random_one_sparse_table"),
    ("one_sparse", "hamsim.one_sparse", "extract_table"),
    ("one_sparse", "hamsim.one_sparse", "pack_tables"),
    ("one_sparse", "hamsim.one_sparse", "precision_bits"),
    ("one_sparse", "hamsim.one_sparse", "apply_product_formula"),
    ("kernels", "hamsim._kernels", "apply_plan"),
    ("suzuki", "hamsim.suzuki", "choose_k"),
    ("suzuki", "hamsim.suzuki", "choose_r"),
    ("suzuki", "hamsim.suzuki", "build_plan"),
    ("suzuki", "hamsim.suzuki", "restriction_check"),
    ("suzuki", "hamsim.suzuki", "integrator_error_bound"),
    ("numerics", "hamsim.numerics", "spectral_norm"),
    ("numerics", "hamsim.numerics", "hermitian_expm"),
    ("numerics", "hamsim.numerics", "pure_density"),
    ("numerics", "hamsim.numerics", "trace_distance"),
    ("numerics", "hamsim.numerics", "random_state"),
)

# Bytes a sweep must touch at least, from the array sizes: a diagonal entry
# reads its index and h and reads and writes one amplitude; a pair reads
# lo, hi, |a| and u and reads and writes two amplitudes.
DIAG_BYTES = 8 + 8 + 2 * 16
PAIR_BYTES = 8 + 8 + 8 + 16 + 4 * 16


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    queries: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and per-root counts in memory until ``dump``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        # reads the base oracle's query counter; set once the inputs exist
        self.query_count: Callable[[], int] | None = None
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def _queries(self) -> int:
        return self.query_count() if self.query_count is not None else 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, 0.0)
        self.spans.append(sp)
        self._stack.append(sp)
        q0 = self._queries()
        sp.start = self.clock()
        try:
            yield sp
        finally:
            sp.end = self.clock()
            sp.queries = self._queries() - q0
            self._stack.pop()

    def count(self, key: str, by: float = 1) -> None:
        """Add to a count of the root span now open; no-op outside roots."""
        if self._stack:
            self.counts[self._stack[0].id][key] += by

    def wrap(self, name: str, fn: Callable,
             note: Callable[..., dict] | None = None) -> Callable:
        """fn inside a span; note(result, *args) gives counts to add."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if note is not None:
                for key, val in note(out, *args, **kwargs).items():
                    self.count(key, val)
            return out

        return traced

    def patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def instrument(self) -> None:
        """Wrap every TARGETS function wherever a hamsim module binds it."""
        from hamsim import coloring

        notes = {"apply_plan": _kernel_counts, "pack_tables": _packed_counts}
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "hamsim" or key.startswith("hamsim.")]
        for layer, modname, attr in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            traced = self.wrap(f"{layer}.{attr}", orig, notes.get(attr))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self.patch(mod, key, traced)

        column = coloring.ColoredOracle.column

        def counted_column(piece, x):
            y, v = column(piece, x)
            self.count("coloring.lookups")
            if v != 0:
                self.count("coloring.useful_lookups")
            return y, v

        self.patch(coloring.ColoredOracle, "column", counted_column)

    def restore(self) -> None:
        while self._restore:
            owner, attr, val = self._restore.pop()
            setattr(owner, attr, val)

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta,
                       "spans": [asdict(sp) for sp in self.spans],
                       "counts": {str(k): dict(v)
                                  for k, v in self.counts.items()}}, fh)


def _kernel_counts(_out, psi, diag_ptr, diag_idx, diag_h, pair_ptr, pair_lo,
                   pair_hi, pair_absa, pair_u, step_term, step_s, reps):
    diag = int((diag_ptr[1:] - diag_ptr[:-1])[step_term].sum())
    pairs = int((pair_ptr[1:] - pair_ptr[:-1])[step_term].sum())
    return {"kernels.sweeps": reps * len(step_term),
            "kernels.entry_updates": reps * (diag + 2 * pairs),
            "kernels.bytes_moved_computed":
                reps * (diag * DIAG_BYTES + pairs * PAIR_BYTES)}


def _packed_counts(packed, _tables):
    return {"one_sparse.packed_bytes":
            sum(val.nbytes for val in vars(packed).values()
                if hasattr(val, "nbytes"))}


def _covered(start: float, end: float,
             intervals: Iterable[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end))
                         for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    return {sp.id: sp.duration - _covered(
                sp.start, sp.end,
                ((c.start, c.end) for c in children[sp.id]))
            for sp in spans}


def by_root(spans: list[Span]) -> dict[int, list[Span]]:
    """Each root's id to its tree (spans are stored parents first)."""
    root_of: dict[int, int] = {}
    trees: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        root_of[sp.id] = sp.id if sp.parent is None else root_of[sp.parent]
        trees[root_of[sp.id]].append(sp)
    return dict(trees)


def layer_self_times(tree: list[Span]) -> dict[str, float]:
    """Self time of one root's tree summed by layer; sums to the root."""
    own = self_times(tree)
    out: dict[str, float] = defaultdict(float)
    for sp in tree:
        out[sp.layer] += own[sp.id]
    return dict(out)
