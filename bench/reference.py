"""Time measured against a reference computation that shares the CPU.

The benchmark's hosts are shared: another tenant on the same physical core
slows a vCPU by up to 2x, for seconds or minutes at a time, and each vCPU
independently.  Wall and CPU time move with it, so two runs of the same
code can differ by 40%.  A ``Gauge`` takes the host out of the timings.

It pins the benchmark to one CPU and starts a child process, pinned to the
same CPU, that runs fixed reference blocks without pause.  The kernel's
scheduler interleaves the two every few milliseconds, so both see the same
host.  A timed region reports its own CPU seconds times the factor

    nominal block time / (reference CPU seconds per block meanwhile)

that is, its CPU time on the host at the speed where one block takes its
nominal time.  A slow host does not slow all code alike (interpreted
numpy calls more than dense LAPACK), so a workload's block mixes PARTS
roughly in the shares its solve spends on that kind of work.  The parts
belong to the benchmark, so a change to hamsim moves the timings and not
the reference.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# The reference's niceness: at 10 the scheduler gives it about a tenth of
# the CPU and the benchmark the rest.
REFERENCE_NICE = 10

# a region's speed is gauged over at least this many reference blocks
MIN_BLOCKS = 10


def _sweeps(dim: int, sweeps: int, chunks: int = 1):
    """Rotations of disjoint pairs of a fixed state, as the py kernel makes.

    With chunks > 1, a call sweeps the next 1/chunks of the pairs, so that
    a short call still ranges over a state larger than the L2 cache.
    """
    rng = np.random.default_rng(0)
    perm = rng.permutation(dim)
    lo = np.array_split(perm[: dim // 2], chunks)
    hi = np.array_split(perm[dim // 2:], chunks)
    theta = np.array_split(rng.uniform(0.0, 1.0, dim // 2), chunks)
    psi = np.ones(dim, dtype=complex) / np.sqrt(dim)
    order = itertools.cycle(range(chunks))

    def run():
        k = next(order)
        for i in range(sweeps):
            th = theta[k] if i % 2 else -theta[k]
            c, sn = np.cos(th), np.sin(th)
            a_lo, a_hi = psi[lo[k]], psi[hi[k]]
            psi[lo[k]] = c * a_lo - 1j * sn * a_hi
            psi[hi[k]] = c * a_hi - 1j * sn * a_lo

    return run


def _python(steps: int):
    """Dict and integer work in the interpreter, as coloring does."""
    def run():
        seen: dict[int, int] = {}
        for i in range(steps):
            key = (i * 7919) % 4093
            seen[key] = seen.get(key, 0) + (i ^ key)

    return run


def _dense(dim: int):
    """A dense Hermitian eigendecomposition, as the dense references make."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = m + m.conj().T
    return lambda: np.linalg.eigh(m)


# name -> (maker of the work, its nominal CPU seconds).  The nominal times
# only set the scale; each is about the part's CPU time alone on a 2-vCPU
# Xeon VM at 2.0 GHz (numpy 2.4).
PARTS = {
    "sweeps": (lambda: _sweeps(256, 100), 0.0015),
    # kernel-wide's packed pieces (about 8 MB) live in L3, not in L2
    "wide_sweeps": (lambda: _sweeps(262144, 1, chunks=4), 0.0045),
    "python": (lambda: _python(7000), 0.0018),
    "dense": (lambda: _dense(64), 0.0011),
}


class Reference:
    """One block runs each named part once, in order."""

    def __init__(self, parts: tuple[str, ...]) -> None:
        self.runs = [PARTS[name][0]() for name in parts]
        self.nominal = sum(PARTS[name][1] for name in parts)

    def block(self) -> None:
        for run in self.runs:
            run()


def _serve(shared, parts: tuple[str, ...], parent: int) -> None:
    """Child: run blocks, publishing (blocks, CPU seconds), until the
    benchmark stops it or ends without doing so."""
    os.nice(REFERENCE_NICE)
    ref = Reference(parts)
    while os.getppid() == parent:
        ref.block()
        cpu = time.process_time()
        # a seqlock: the sequence is odd while the pair is being written
        shared[0] += 1
        shared[1] += 1
        shared[2] = cpu
        shared[0] += 1


@dataclass
class Region:
    """One timed region: wall and own CPU seconds, and in reference time."""

    wall: float = 0.0
    cpu: float = 0.0
    blocks: float = 0.0
    seconds: float = 0.0


class Gauge:
    """Reference blocks on this process's CPU, in a child process."""

    def __init__(self, parts: tuple[str, ...]) -> None:
        self.nominal = sum(PARTS[name][1] for name in parts)
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self._affinity)})
        ctx = multiprocessing.get_context("fork")
        self._shared = ctx.RawArray("d", 3)
        self._child = ctx.Process(target=_serve, args=(self._shared, parts, os.getpid()),
                                  daemon=True)
        self._child.start()
        self._wait_for(self._read()[0] + MIN_BLOCKS)

    def _wait_for(self, blocks: float) -> tuple[float, float]:
        """Sleep until the child has run ``blocks`` blocks; read it then."""
        deadline = time.perf_counter() + 30.0
        while True:
            now = self._read()
            if now[0] >= blocks:
                return now
            if not self._child.is_alive() or time.perf_counter() > deadline:
                self.close()
                raise RuntimeError("the reference process stopped")
            time.sleep(0.001)

    def _read(self) -> tuple[float, float]:
        shared = self._shared
        while True:
            seq = shared[0]
            blocks, cpu = shared[1], shared[2]
            if seq % 2 == 0 and shared[0] == seq:
                return blocks, cpu

    @contextmanager
    def region(self):
        """Time the body; fills in the Region it yields on exit.

        A body too short for MIN_BLOCKS reference blocks is gauged by the
        blocks that run alone right after it.
        """
        out = Region()
        b0, c0 = self._read()
        w0, p0 = time.perf_counter(), time.process_time()
        yield out
        out.cpu = time.process_time() - p0
        out.wall = time.perf_counter() - w0
        b1, c1 = self._wait_for(b0 + MIN_BLOCKS)
        out.blocks = b1 - b0
        out.seconds = out.cpu * self.nominal * out.blocks / (c1 - c0)

    def close(self) -> None:
        if self._child.is_alive():
            self._child.terminate()
        self._child.join()
        os.sched_setaffinity(0, self._affinity)
