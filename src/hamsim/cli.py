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
Output is deterministic JSON (sorted keys, null for a figure past float
range) except where noted; exit codes are 0 on success, 1 for domain or
verification failures, 2 for usage.
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

import numpy as np

from . import __version__, _kernels, coloring, numerics, one_sparse
from . import oracle as oracle_mod
from . import parity as parity_mod
from . import suzuki
from .config import HamsimError, PlanError
# bench/workloads.py and bench/spans.py reach simulate_pipeline through cli
from .planner import check_seed, simulate_pipeline


def fit_loglog_slope(xs, ys, floor: float) -> float | None:
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
        seed = check_seed(_gen_number(kind, opts, "seed", int, "0"),
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
    hams = [one_sparse.table_to_dense(t)
            for t in coloring.decompose(orc).tables if t.entry_count]
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


def _finite(obj):
    """obj with every inf and nan float as None, which JSON can hold."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(val) for val in obj]
    return obj


def _emit_json(args, payload) -> None:
    # numpy's int64 and bool_ leak into payloads and json takes neither;
    # its float64 is a float, which json prints as .item() would.  A
    # figure past float range prints as null: strict readers take no
    # Infinity
    _write_text(args, json.dumps(
        _finite(payload), sort_keys=True, indent=2, allow_nan=False,
        default=lambda obj: _finite(obj.item())) + "\n")


def _quantize_option(text: str | None) -> int | str | None:
    """--quantize as None (off), "auto" or a bit count."""
    if text in (None, "off"):
        return None
    if text == "auto":
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
    r, notes = ((args.r, []) if args.r is not None
                else (suzuki.choose_r(k, m, tau, eps),
                      suzuki.window_notes(k, m, tau, eps)))
    lin, power = suzuki.restriction_values(k, m, tau, r)
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
        "restriction_ok": lin <= 1.0 and power <= 1.0,
        "error_bound": suzuki.integrator_error_bound(k, m, tau, r),
        "error_bound_sharp": suzuki.integrator_error_bound_sharp(k, m, tau, r),
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
            rows.append({
                "k": k, "r": r,
                "measured_error": measured,
                "bound": suzuki.integrator_error_bound(k, m, tau, r),
                "bound_sharp": suzuki.integrator_error_bound_sharp(k, m, tau, r),
                "restriction_ok": suzuki.restriction_check(k, m, tau, r),
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


def cmd_simulate(args) -> int:
    quantize = _quantize_option(args.quantize)
    orc = _load_oracle(args.input, args.gen)
    result = simulate_pipeline(
        orc, args.time, args.eps, k=args.k, r=args.r,
        state_seed=args.state_seed, quantize=quantize,
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
    dec = coloring.decompose(orc)
    rows = []
    for label, table in zip(labels, dec.tables):
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
        report = coloring.verify_coloring(orc, dec)
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
        # run_parity reads both ladder pieces whole, 2^register_bits columns
        n = parity_mod.register_bits(args.size)
        oracle_mod.check_memory(
            f"--size {args.size}: full read of 2^{n} ladder columns", 1 << n,
            "columns", oracle_mod.SLOT_BYTES)
        rng = np.random.default_rng(check_seed(args.seed, "--seed"))
        bits = [int(b) for b in rng.integers(0, 2, size=args.size)]
    instance = parity_mod.ParityInstance(bits)
    res = parity_mod.run_parity(instance, args.eps,
                                quantize_bits=quantize_bits)
    payload = {
        **dataclasses.asdict(res),
        "bits": "".join(str(b) for b in bits),
        "size": instance.size,
        "register_bits": parity_mod.register_bits(instance.size),
        "expected_parity": instance.parity(),
        "error_ok": res.trace_error <= args.eps,
        "backend": _kernels.BACKEND,
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
