"""Oracle tools that only the tests use: the canonical entry list of an
oracle, its text form and file, a slot-order shuffle, and the coloring's
pieces as per-label lookups."""

import numpy as np

from hamsim.coloring import ColoredOracle, enumerate_labels
from hamsim.config import OracleError
from hamsim.oracle import (EntryList, SparseOracle, from_columns,
                           read_entries)


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


def save_entry_list(el: EntryList, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(entry_list_to_text(el))


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
    return from_columns(oracle.n, oracle.d, columns)


def colored_pieces(oracle: SparseOracle) -> list[ColoredOracle]:
    """Every piece of the coloring as a lookup, one ColoredOracle per label
    in enumerate_labels order."""
    return [ColoredOracle(oracle, label)
            for label in enumerate_labels(oracle.d, oracle.n)]
