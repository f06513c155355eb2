"""Command line front end.

Subcommands:
  bound      cost and error figures for a product-formula run
  sweep      measured integrator error against the bound across k and r
  simulate   decompose a sparse oracle, evolve, and account for queries
  decompose  list the 1-sparse pieces of an oracle
  parity     hidden-bitstring parity through the ladder construction
  tables     recompute the worked halving traces and check them

Oracles come from --input (an entry-list file) or --gen, a compact
generator spec like random:n=4,d=3,seed=7,norm=1.  Sweeps also accept
terms:m=3,dim=8,seed=1,norm=1 for plain random Hermitian term lists.
Output is deterministic JSON (sorted keys) except where noted; exit codes
are 0 on success, 1 for domain or verification failures, 2 for usage.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import time
import warnings

import numpy as np

from . import __version__, _kernels, coloring, numerics, one_sparse
from . import oracle as oracle_mod
from . import parity as parity_mod
from . import suzuki
from .config import ColoringError, HamsimError, PlanError


def fit_loglog_slope(xs, ys, floor: float = 1e-12) -> float | None:
    """Least-squares slope of log(y) against log(x), ignoring y at or
    below the noise floor.  None when fewer than two points survive."""
    pts = [(float(x), float(y)) for x, y in zip(xs, ys) if y > floor]
    if len(pts) < 2:
        return None
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    return float(np.polyfit(lx, ly, 1)[0])


def _gen_options(spec: str) -> tuple[str, dict[str, str]]:
    kind, _, rest = spec.partition(":")
    opts: dict[str, str] = {}
    for chunk in rest.split(","):
        if not chunk:
            continue
        if "=" not in chunk:
            raise HamsimError(f"generator option {chunk!r} is not key=value")
        key, val = chunk.split("=", 1)
        opts[key] = val
    return kind, opts


def _gen_number(kind: str, opts: dict[str, str], key: str, cast,
                default: str | None = None):
    """Pop generator option `key` and convert it with `cast`."""
    raw = opts.pop(key, default)
    if raw is None:
        raise HamsimError(f"{kind} generator needs {key}=")
    try:
        return cast(raw)
    except ValueError:
        raise HamsimError(
            f"{kind} generator option {key}={raw!r} is not a number") from None


def _check_seed(seed: int | None, name: str) -> int | None:
    """Pass a user seed through; numpy accepts only nonnegative ones."""
    if seed is not None and seed < 0:
        raise HamsimError(f"{name} must be nonnegative, got {seed}")
    return seed


def _load_oracle(input_path: str | None, gen: str | None):
    if (input_path is None) == (gen is None):
        raise HamsimError("exactly one of --input and --gen is required")
    if input_path is not None:
        return oracle_mod.from_entry_list(oracle_mod.load_entry_list(input_path))
    kind, opts = _gen_options(gen)
    if kind != "random":
        raise HamsimError(f"generator {kind!r} does not build an oracle")
    n = _gen_number(kind, opts, "n", int)
    d = _gen_number(kind, opts, "d", int)
    seed = _gen_number(kind, opts, "seed", int, "0")
    norm = _gen_number(kind, opts, "norm", float) if "norm" in opts else None
    if opts:
        raise HamsimError(f"unknown generator options {sorted(opts)}")
    return oracle_mod.random_sparse(n, d, seed=seed, norm_target=norm)


def _load_terms(args) -> list[np.ndarray]:
    if args.gen is not None and args.gen.startswith("terms:"):
        kind, opts = _gen_options(args.gen)
        m = _gen_number(kind, opts, "m", int)
        dim = _gen_number(kind, opts, "dim", int)
        seed = _check_seed(_gen_number(kind, opts, "seed", int, "0"),
                           f"{kind} generator seed")
        norm = _gen_number(kind, opts, "norm", float, "1.0")
        if opts:
            raise HamsimError(f"unknown generator options {sorted(opts)}")
        if m < 1 or dim < 1:
            raise HamsimError(
                f"terms generator needs m >= 1 and dim >= 1, got m={m}, dim={dim}")
        rng = np.random.default_rng(seed)
        return [numerics.random_hermitian(dim, rng, norm=norm) for _ in range(m)]
    orc = _load_oracle(args.input, args.gen)
    hams = [one_sparse.table_to_dense(t) for t in coloring.piece_tables(orc)
            if t.entry_count]
    if not hams:
        raise HamsimError("the matrix is zero, nothing to sweep")
    return hams


def _write_text(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise HamsimError(f"cannot write --out {args.out}: "
                              f"{exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _plain(obj):
    # numpy scalars leak into comparisons and payloads; json wants natives
    if isinstance(obj, dict):
        return {key: _plain(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(val) for val in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _emit_json(args, payload) -> None:
    _write_text(args, json.dumps(_plain(payload), sort_keys=True, indent=2) + "\n")


def _recording(fn, *fargs, **fkw):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        out = fn(*fargs, **fkw)
    return out, [str(w.message) for w in rec]


def _quantize_option(text: str | None) -> int | str | None:
    """--quantize as None (off), "auto" or a bit count.  A value that is
    not text is returned as it is, for check_bits to accept or refuse."""
    if text in (None, "off"):
        return None
    if text == "auto" or not isinstance(text, str):
        return text
    try:
        return int(text)
    except ValueError:
        raise HamsimError(
            f"--quantize wants off, auto or a bit count, got {text!r}") from None


def _int_list(text: str, flag: str) -> list[int]:
    try:
        vals = [int(v) for v in text.split(",") if v]
    except ValueError:
        raise HamsimError(f"{flag} wants a comma-separated integer list")
    if not vals:
        raise HamsimError(f"{flag} is empty")
    return vals


def cmd_bound(args) -> int:
    m, tau, eps = args.m, args.tau, args.eps
    k_free, free = suzuki.nexp_bound_optimal(m, tau, eps)
    k = args.k if args.k is not None else k_free
    notes: list[str] = []
    if args.r is not None:
        r = args.r
    else:
        r, notes = _recording(suzuki.choose_r, k, m, tau, eps)
    lin, power = suzuki.restriction_values(k, m, tau, r)
    ok = lin <= 1.0 and power <= 1.0
    per_k = suzuki.nexp_bound(k, m, tau, eps)
    count = suzuki.exponential_count(k, m)
    try:
        r_sharp = suzuki.choose_r_sharp(k, m, tau, eps)
    except PlanError:  # past float range, as error_bound_sharp reads None
        r_sharp = None
    payload = {
        "m": m, "tau": tau, "eps": eps, "k": k, "r": r,
        "plan_length": count,
        "n_exp": r * count,
        "r_sharp": r_sharp,
        "n_exp_sharp": r_sharp * count if r_sharp is not None else None,
        "restriction_linear": lin,
        "restriction_power": power,
        "restriction_ok": ok,
        "error_bound": suzuki.integrator_error_bound(k, m, tau, r) if ok else None,
        "error_bound_sharp": (suzuki.integrator_error_bound_sharp(k, m, tau, r)
                              if lin <= 1.0 else None),
        "nexp_bound": per_k.value,
        "nexp_bound_window": per_k.within_window,
        "k_order_free": k_free,
        "nexp_bound_order_free": free.value,
        "nexp_bound_order_free_window": free.within_window,
        "warnings": notes,
    }
    _emit_json(args, payload)
    return 0


def cmd_sweep(args) -> int:
    t = args.time
    if not math.isfinite(t):
        raise PlanError(f"evolution time must be finite, got {t}")
    if not (math.isfinite(args.floor) and args.floor >= 0):
        raise HamsimError(
            f"--floor must be finite and nonnegative, got {args.floor}")
    hams = _load_terms(args)
    m = len(hams)
    tau = max(numerics.spectral_norm(H) for H in hams) * abs(t)
    exact = numerics.hermitian_expm(sum(hams), t)
    ks = _int_list(args.k_list, "--k-list")
    rs = _int_list(args.r_list, "--r-list")
    rows = []
    for k in ks:
        for r in rs:
            n_exp = one_sparse.exponential_total(
                r, suzuki.exponential_count(k, m))
            start = time.perf_counter()
            approx = suzuki.plan_unitary(hams, t, k, r)
            wall = time.perf_counter() - start
            measured = numerics.unitary_diff_norm(exact, approx)
            ok = suzuki.restriction_check(k, m, tau, r)
            lin, _ = suzuki.restriction_values(k, m, tau, r)
            rows.append({
                "k": k, "r": r,
                "measured_error": measured,
                "bound": suzuki.integrator_error_bound(k, m, tau, r) if ok else None,
                "bound_sharp": (suzuki.integrator_error_bound_sharp(k, m, tau, r)
                                if lin <= 1.0 else None),
                "restriction_ok": ok,
                "n_exp": n_exp,
                "wall_time": wall,
            })
    slopes = {
        str(k): fit_loglog_slope(
            [row["r"] for row in rows if row["k"] == k],
            [row["measured_error"] for row in rows if row["k"] == k],
            floor=args.floor)
        for k in ks
    }
    if args.format == "csv":
        buf = io.StringIO()
        fields = ["k", "r", "measured_error", "bound", "bound_sharp",
                  "restriction_ok", "n_exp", "wall_time"]
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
        for k in ks:
            buf.write(f"# slope k={k}: {slopes[str(k)]}\n")
        _write_text(args, buf.getvalue())
    else:
        _emit_json(args, {"m": m, "tau": tau, "time": t,
                          "rows": rows, "slopes": slopes})
    return 0


def simulate_pipeline(orc, t: float, eps: float, k: int | None = None,
                      r: int | None = None, state_seed: int | None = None,
                      quantize: str | None = None,
                      verify: bool = True) -> dict:
    """Decompose, evolve, and account: the whole toolchain as one call.

    One counted read of every slot (dim * d base queries) gives the piece
    tables and the entries.  entries_from_slots checks it once, before any
    table is built, with or without verify.  Verification checks the
    tables against the entries and cold piece lookups; the measured error
    compares the evolved state with exp(-iHt) psi0 from the entries;
    norm_bound, the largest absolute row sum, bounds ||H|| and sets the
    precision grid.
    No dense matrix is built at any size.  A non-finite t and an eps that
    is not finite and positive are refused before any query is spent, as
    are a given k or r that is not a positive integer and a quantize bit
    count that is not an integer in 1..62.

    The non-empty pieces run in order of entry count, largest first, ties
    in label order.  The commutator bound holds for any order of the
    terms, and with the largest pieces outermost their suffix sums S_g
    are smallest, so alpha and r shrink.  The norms, alpha, quantization,
    packing and the plan all use this one list, so the bound describes
    the plan that runs.
    """
    if not math.isfinite(t):
        raise PlanError(f"evolution time must be finite, got {t}")
    if not (math.isfinite(eps) and eps > 0):
        raise PlanError(f"eps must be a finite positive number, got {eps}")
    if k is not None:
        suzuki.check_order(k)
    if r is not None:
        one_sparse.check_repetitions(r)
    quantize_bits = _quantize_option(quantize)
    if quantize_bits not in (None, "auto"):
        one_sparse.check_bits(quantize_bits)
    dim = orc.dim
    z = coloring.iterate_count(orc.n)
    rng = np.random.default_rng(_check_seed(state_seed, "--state-seed"))

    base_before = orc.counter.count
    slots = oracle_mod.read_slots(orc, orc.query)
    base_queries = orc.counter.count - base_before
    entries = oracle_mod.entries_from_slots(*slots)
    tables = coloring.tables_from_slots(orc.n, *slots)

    verification = None
    if verify:
        report = coloring.verify_coloring(orc, tables, entries)
        verification = {key: getattr(report, key) for key in (
            "ok", "nonzero_pieces", "max_queries_per_call", "query_bound",
            "lookups_checked")}
        verification["failures"] = list(report.failures)
        if not report.ok:
            raise ColoringError(
                "decomposition failed verification: " + "; ".join(report.failures))

    # stable: equal entry counts keep label order
    tables = sorted((tb for tb in tables if tb.entry_count),
                    key=lambda tb: -tb.entry_count)
    m = len(tables)

    lam_piece = max((tb.norm for tb in tables), default=0.0)
    tau = lam_piece * abs(t)
    # the commutator bound's alpha, like tau, from the unquantized pieces
    alpha = suzuki.commutator_alpha(one_sparse.nested_commutator_norms(tables))
    m_plan = max(m, 1)
    k_paper = k if k is not None else suzuki.choose_k(m_plan, tau, eps)
    r_paper, notes = _recording(suzuki.choose_r, k_paper, m_plan, tau, eps)
    r_commutator = suzuki.choose_r_commutator(alpha, t, eps)
    commutator_cheaper = (r_commutator * suzuki.exponential_count(1, m_plan)
                          <= r_paper * suzuki.exponential_count(k_paper, m_plan))
    if r is not None:
        r_rule, k, notes = "given", k_paper, []
    elif k == 1 or (k is None and commutator_cheaper):
        r_rule, k, r = "commutator", 1, r_commutator
    else:
        r_rule, k, r = "paper", k_paper, r_paper

    norm_bound = numerics.max_row_sum(entries[0], entries[2])
    bits_needed = one_sparse.precision_bits(norm_bound * abs(t), orc.d, k, eps)
    if quantize_bits == "auto":
        quantize_bits = bits_needed
    if quantize_bits is not None and norm_bound > 0:
        tables = [one_sparse.quantize_table(tb, quantize_bits, norm_bound)
                  for tb in tables]
        tables = [tb for tb in tables if tb.entry_count]
        m = len(tables)

    if state_seed is None:
        psi0 = np.zeros(dim, dtype=np.complex128)
        psi0[0] = 1.0
    else:
        psi0 = numerics.random_state(dim, rng)

    if m == 0:
        psi, n_exp, plan_length = psi0.copy(), 0, 0
    else:
        # checked before the plan is built, whose length grows as 5^(k-1)
        n_exp = one_sparse.exponential_total(
            r, suzuki.exponential_count(k, m))
        plan = suzuki.build_plan(k, m)
        plan_length = len(plan.steps)
        psi = one_sparse.apply_product_formula(
            one_sparse.pack_tables(tables), plan, t, r, psi0)

    restriction_ok = suzuki.restriction_check(k, max(m, 1), tau, r)
    bound_paper = (suzuki.integrator_error_bound(k, max(m, 1), tau, r)
                   if restriction_ok and m else (0.0 if not m else None))
    # the commutator bound covers the symmetric k = 1 plan only
    bound_commutator = (suzuki.commutator_error_bound(alpha, t, r)
                        if k == 1 else None)
    bound = min((b for b in (bound_paper, bound_commutator) if b is not None),
                default=None)

    exact = numerics.expm_action(*entries, t, psi0)
    measured = numerics.pure_state_distance(psi, exact)
    error_ok = measured <= eps

    base_bound = 2 * (z + 2) * n_exp
    result = {
        "n": orc.n, "d": orc.d, "dim": dim, "z": z,
        "time": t, "eps": eps, "k": k, "r": r,
        "r_paper": r_paper, "r_commutator": r_commutator, "r_rule": r_rule,
        "commutator_alpha": alpha,
        "m_pieces": m,
        "plan_length": plan_length,
        "n_exp": n_exp,
        "tau": tau,
        "piece_norm_max": lam_piece,
        "norm_bound": norm_bound,
        "verification": verification,
        "base_queries": base_queries,
        "base_query_bound": base_bound,
        "base_queries_ok": (base_queries <= base_bound) if n_exp else None,
        "precision_bits_recommended": bits_needed,
        "quantize_bits": quantize_bits,
        "restriction_ok": restriction_ok,
        "error_bound": bound,
        "error_bound_paper": bound_paper,
        "error_bound_commutator": bound_commutator,
        "bound_slack": measured / bound if bound else None,
        "measured_error": measured,
        "error_ok": error_ok,
        "backend": _kernels.BACKEND,
        "warnings": notes,
    }
    if dim <= 64:
        result["state"] = [[float(a.real), float(a.imag)] for a in psi]
    return result


def cmd_simulate(args) -> int:
    orc = _load_oracle(args.input, args.gen)
    result = simulate_pipeline(
        orc, args.time, args.eps, k=args.k, r=args.r,
        state_seed=args.state_seed, quantize=args.quantize,
        verify=not args.no_verify)
    _emit_json(args, result)
    if result["error_ok"] is False:
        print(f"error: measured error {result['measured_error']} exceeds "
              f"eps {args.eps}", file=sys.stderr)
        return 1
    return 0


def cmd_decompose(args) -> int:
    orc = _load_oracle(args.input, args.gen)
    labels = coloring.enumerate_labels(orc.d, orc.n)
    slots = oracle_mod.read_slots(orc, orc.query)
    entries = oracle_mod.entries_from_slots(*slots)
    tables = coloring.tables_from_slots(orc.n, *slots)
    rows = []
    for label, table in zip(labels, tables):
        if not table.entry_count and not args.all:
            continue
        rows.append({
            "i": label.i, "j": label.j, "nu": label.nu,
            "diagonals": int(table.diag_idx.size),
            "pairs": int(table.pair_lo.size),
            "entries": table.entry_count,
            "max_abs": table.norm,
        })
    payload = {
        "n": orc.n, "d": orc.d, "dim": orc.dim,
        "z": coloring.iterate_count(orc.n),
        "label_count": len(labels),
        "nonzero_pieces": sum(1 for row in rows if row["entries"]),
        "pieces": rows,
    }
    if not args.no_verify:
        report = coloring.verify_coloring(orc, tables, entries)
        payload["verified"] = report.ok
        payload["lookups_checked"] = report.lookups_checked
        payload["failures"] = list(report.failures)
    if args.format == "csv":
        buf = io.StringIO()
        fields = ["i", "j", "nu", "diagonals", "pairs", "entries", "max_abs"]
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
        _write_text(args, buf.getvalue())
    else:
        _emit_json(args, payload)
    return 0 if payload.get("verified", True) else 1


def cmd_parity(args) -> int:
    if (args.bits is None) == (args.size is None):
        raise HamsimError("exactly one of --bits and --size is required")
    quantize_bits = _quantize_option(args.quantize)
    if args.bits is not None:
        if set(args.bits) - {"0", "1"}:
            raise HamsimError(f"--bits wants a 01 string, got {args.bits!r}")
        bits = [int(b) for b in args.bits]
    else:
        if args.size < 1:
            raise HamsimError(f"--size must be positive, got {args.size}")
        rng = np.random.default_rng(_check_seed(args.seed, "--seed"))
        bits = [int(b) for b in rng.integers(0, 2, size=args.size)]
    instance = parity_mod.ParityInstance(bits)
    if quantize_bits == "auto":
        quantize_bits = one_sparse.precision_bits(
            math.pi * instance.size / 2.0, 2, 1, args.eps)
    res, notes = _recording(parity_mod.run_parity, instance, args.eps,
                            quantize_bits=quantize_bits)
    payload = {
        **dataclasses.asdict(res),
        "bits": "".join(str(b) for b in bits),
        "size": instance.size,
        "register_bits": parity_mod.register_bits(instance.size),
        "expected_parity": instance.parity(),
        "error_ok": res.trace_error <= args.eps,
        "backend": _kernels.BACKEND,
        "warnings": notes,
    }
    _emit_json(args, payload)
    return 0 if res.correct and payload["error_ok"] else 1


def cmd_tables(args) -> int:
    lines = []
    tags = []
    failed = False
    for name, stored in (("main", coloring.REFERENCE_TRACE_MAIN),
                         ("shifted", coloring.REFERENCE_TRACE_SHIFTED)):
        chain = [row[0] for row in stored]
        trace = coloring.halving_trace(chain, 4)
        widths = [len(level[0]) for level in trace]
        ok = all(trace[lvl][idx] == stored[idx][lvl]
                 for idx in range(len(stored)) for lvl in range(5))
        tag = trace[4][0]
        tags.append(tag)
        ok = ok and tag in coloring.FINAL_ALPHABET
        lines.append(f"{name:8s} widths={'-'.join(map(str, widths))} "
                     f"tag={tag} {'PASS' if ok else 'FAIL'}")
        failed = failed or not ok
    z = coloring.iterate_count(18)
    zline_ok = z == 4
    lines.append(f"rounds   z_18={z} {'PASS' if zline_ok else 'FAIL'}")
    main_tag, shifted_tag = tags
    distinct = main_tag != shifted_tag
    lines.append(f"tags     main={main_tag} shifted={shifted_tag} "
                 f"{'PASS' if distinct else 'FAIL'}")
    _write_text(args, "\n".join(lines) + "\n")
    return 1 if (failed or not zline_ok or not distinct) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamsim",
        description="Sparse-Hamiltonian simulation toolkit: product-formula "
                    "bounds, 1-sparse decomposition, exact piece evolution, "
                    "and the parity ladder.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, fmt: bool = True):
        p.add_argument("--out", help="write output to this file instead of stdout")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    def add_source(p):
        p.add_argument("--input", help="entry-list file")
        p.add_argument("--gen", help="generator spec, e.g. random:n=4,d=2,seed=1")

    p = sub.add_parser("bound", help="cost and error figures")
    p.add_argument("--m", type=int, required=True, help="term count")
    p.add_argument("--tau", type=float, required=True, help="norm-time product")
    p.add_argument("--eps", type=float, required=True, help="error target")
    p.add_argument("--k", type=int, help="integrator order index (default: chosen)")
    p.add_argument("--r", type=int, help="slice count (default: chosen)")
    add_io(p, fmt=False)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sweep", help="error scaling across k and r")
    add_source(p)
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--k-list", default="1,2", dest="k_list")
    p.add_argument("--r-list", default="4,8,16,32,64,128,256", dest="r_list")
    p.add_argument("--floor", type=float, default=1e-12,
                   help="discard errors at or below this level in slope fits")
    add_io(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="decompose, evolve, account")
    add_source(p)
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--k", type=int, help="override the order choice")
    p.add_argument("--r", type=int, help="override the slice count")
    p.add_argument("--state-seed", type=int, dest="state_seed",
                   help="random initial state (default: first basis state)")
    p.add_argument("--quantize", help="off (default), auto, or a bit count")
    p.add_argument("--no-verify", action="store_true", dest="no_verify")
    add_io(p, fmt=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decompose", help="list the 1-sparse pieces")
    add_source(p)
    p.add_argument("--all", action="store_true",
                   help="include empty pieces in the listing")
    p.add_argument("--no-verify", action="store_true", dest="no_verify")
    add_io(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("parity", help="parity of a hidden bitstring")
    p.add_argument("--bits", help="explicit bitstring, e.g. 10110")
    p.add_argument("--size", type=int, help="random bitstring of this length")
    p.add_argument("--seed", type=int, default=0, help="seed for --size")
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--quantize", help="off (default), auto, or a bit count")
    add_io(p, fmt=False)
    p.set_defaults(func=cmd_parity)

    p = sub.add_parser("tables", help="check the worked halving traces")
    add_io(p, fmt=False)
    p.set_defaults(func=cmd_tables)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HamsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
