"""The benchmark's four workloads: inputs, the user-facing call, its checks.

Each workload builds its inputs from the run's seed, makes one call a user
of hamsim would make, and checks that call's output outside the timed
region.  The instance that fixes a solve's cost (oracle, N, table sizes) is
part of the workload; the seed draws what leaves that cost unchanged (the
start state, the hidden bits, the piece tables), so ``n_exp``,
``base_queries`` and ``r`` repeat exactly across seeds.  README.md says
why each workload exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from hamsim import _kernels, cli, numerics, one_sparse, oracle, parity, suzuki

# a solve whose reversal misses the start state by more than this failed
REVERSAL_TOL = 1e-10


@dataclass(frozen=True)
class Costs:
    """Exact per-solve counts, plus the bound and the error it covers."""

    n_exp: int
    base_queries: int
    k: int
    r: int
    plan_length: int
    bound: float | None = None
    measured: float | None = None
    bit_queries: int = 0
    h_queries: int = 0
    lower_bound_ratio: float = 0.0
    max_queries_per_lookup: int = 0

    def exact(self) -> tuple:
        return (self.n_exp, self.base_queries, self.k, self.r,
                self.plan_length, self.bit_queries, self.h_queries)


@dataclass(frozen=True)
class Workload:
    name: str
    # seed -> the Hamiltonian source (timed as oracle.build)
    build: Callable[[int], Any]
    # (source, seed) -> the inputs of one solve
    prepare: Callable[[Any, int], Any]
    # inputs -> output; the user-facing call and nothing else
    solve: Callable[[Any], Any]
    # (inputs, output) -> failed checks, empty when the output is right
    check: Callable[[Any, Any], list[str]]
    costs: Callable[[Any, Any], Costs]
    # inputs -> reader of the counter behind base_queries, or None
    query_counter: Callable[[Any], Callable[[], int]] | None = None
    # the reference parts its timings are measured against (reference.py),
    # in about the shares of its solve's kinds of work
    reference: tuple[str, ...] = ("sweeps",)


@dataclass(frozen=True)
class SimInputs:
    orc: oracle.SparseOracle
    state_seed: int


def simulate_workload(name: str, n: int, d: int, eps: float, t: float = 1.0,
                      oracle_seed: int = 1,
                      reference: tuple[str, ...] = ("sweeps",)) -> Workload:
    """cli.simulate_pipeline with verification on, from a seeded start state."""
    def build(_seed):
        return oracle.random_sparse(n, d, seed=oracle_seed, norm_target=1.0)

    def solve(inp):
        return cli.simulate_pipeline(inp.orc, t, eps,
                                     state_seed=inp.state_seed, verify=True)

    def check(_inp, out):
        fails = []
        ver = out["verification"]
        if ver is None or not ver["ok"]:
            fails.append("coloring verification did not pass")
        elif ver["max_queries_per_call"] > ver["query_bound"]:
            fails.append("a lookup exceeded 2(z+2) base queries")
        if out["error_ok"] is not True:
            fails.append(f"measured error {out['measured_error']} vs eps {eps}")
        if out["base_queries_ok"] is not True:
            fails.append("base queries above 2(z+2) n_exp")
        return fails

    def costs(_inp, out):
        return Costs(n_exp=out["n_exp"], base_queries=out["base_queries"],
                     k=out["k"], r=out["r"], plan_length=out["plan_length"],
                     bound=out["error_bound"], measured=out["measured_error"],
                     max_queries_per_lookup=(
                         out["verification"]["max_queries_per_call"]))

    return Workload(name, build, lambda orc, seed: SimInputs(orc, seed),
                    solve, check, costs,
                    query_counter=lambda inp: lambda: inp.orc.counter.count,
                    reference=reference)


def parity_workload(name: str, size: int, eps: float) -> Workload:
    """parity.run_parity on seeded bits, checked against the closed form."""
    def build(seed):
        bits = np.random.default_rng(seed).integers(0, 2, size=size)
        return parity.ParityInstance([int(b) for b in bits])

    def check(_inst, res):
        fails = []
        if not res.correct:
            fails.append("wrong parity")
        if not res.trace_error <= eps:
            fails.append(f"trace error {res.trace_error} vs eps {eps}")
        if not res.lower_bound_ok:
            fails.append("fewer than N/4 column queries")
        return fails

    def costs(_inst, res):
        # the ladder is two pieces run for time pi at norm N/2, at k = 1
        tau = math.pi * size / 2.0
        return Costs(n_exp=res.n_exp, base_queries=res.bit_queries, k=1,
                     r=res.r, plan_length=res.n_exp // res.r,
                     bound=suzuki.integrator_error_bound(1, 2, tau, res.r),
                     measured=res.trace_error, bit_queries=res.bit_queries,
                     h_queries=res.h_queries,
                     lower_bound_ratio=res.h_queries / (size / 4.0))

    return Workload(name, build, lambda inst, _seed: inst,
                    lambda inst: parity.run_parity(inst, eps), check, costs,
                    query_counter=lambda inst: lambda: inst.counter.count)


@dataclass(frozen=True)
class KernelInputs:
    packed: one_sparse.PackedPieces
    plan: suzuki.ProductFormulaPlan
    psi0: np.ndarray


def kernel_workload(name: str, dim: int, pieces: int, k: int, r: int,
                    t: float = 1.0) -> Workload:
    """one_sparse.apply_product_formula on seeded random 1-sparse pieces.

    There is no dense reference at this size.  The plan is symmetric, so
    running it at -t must bring the start state back; every other built
    kernel backend must give the same state.
    """
    def build(seed):
        return [one_sparse.random_one_sparse_table(dim, seed=pieces * seed + i)
                for i in range(pieces)]

    def prepare(tables, seed):
        return KernelInputs(one_sparse.pack_tables(tables),
                            suzuki.build_plan(k, pieces),
                            numerics.random_state(
                                dim, np.random.default_rng(seed)))

    def solve(inp):
        return one_sparse.apply_product_formula(inp.packed, inp.plan, t, r,
                                                inp.psi0)

    def check(inp, out):
        fails = []
        back = one_sparse.apply_product_formula(inp.packed, inp.plan, -t, r,
                                                out)
        gap = float(np.linalg.norm(back - inp.psi0))
        if not gap <= REVERSAL_TOL:
            fails.append(f"reversed plan misses the start state by {gap:.2e}")
        for backend in _kernels.available_backends():
            if backend == _kernels.BACKEND:
                continue
            other = one_sparse.apply_product_formula(
                inp.packed, inp.plan, t, r, inp.psi0, backend=backend)
            diff = float(np.linalg.norm(other - out))
            if not diff <= REVERSAL_TOL:
                fails.append(f"backend {backend} differs by {diff:.2e}")
        return fails

    def costs(inp, _out):
        return Costs(n_exp=r * len(inp.plan.steps), base_queries=0, k=k, r=r,
                     plan_length=len(inp.plan.steps))

    return Workload(name, build, prepare, solve, check, costs,
                    reference=("wide_sweeps",))


WORKLOADS = {wl.name: wl for wl in (
    simulate_workload("sim-deep", n=8, d=3, eps=1e-2),
    # sim-wide's solve is about a third kernel sweeps, half interpreted
    # coloring and extraction, and a sixth dense references
    simulate_workload("sim-wide", n=9, d=4, eps=1e-1,
                      reference=("sweeps", "python", "dense")),
    parity_workload("parity-ladder", size=64, eps=0.2),
    kernel_workload("kernel-wide", dim=65536, pieces=6, k=2, r=10),
)}
