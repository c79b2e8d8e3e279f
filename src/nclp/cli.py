"""Reproducible experiment runner.

Every subcommand writes one artifact per run: a header block (tool
version, config echo, wall time) followed by data rows, as CSV (tables)
or JSON (machine use).  Identical configuration and seed produce
byte-identical data rows; wall time lives only in the header.  A flat
JSON config file can prefill any flag (explicit flags win).  Exit codes:
0 ok, 2 usage error, 3 numeric failure, 4 solver-budget warning (soft
unless --strict, which hardens it to 3).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__, funcalc as fc, hvnorms, rbound, sqfn
from .core import NumericsError, check_exponent, dumps_family, schatten_norm, psd_sqrt
from .models import clifford, fock, freegroup, martingale, schur
from .optim import ConvexCfg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_SOLVER = 4


def _fmt(v) -> str:
    if isinstance(v, (float, complex)):
        return repr(v)
    if isinstance(v, np.floating):
        return repr(float(v))
    if isinstance(v, np.integer):
        return repr(int(v))
    return str(v)


def write_artifact(path, fmt, meta, columns, rows):
    """Emit header (meta) plus data rows, CSV or JSON."""
    if fmt == "json":
        payload = {"meta": meta, "columns": columns, "rows": rows}
        text = json.dumps(payload, indent=2, default=_fmt) + "\n"
    else:
        buf = io.StringIO()
        for k in meta:
            buf.write(f"# {k} = {meta[k]}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c, "")) for c in columns])
        text = buf.getvalue()
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def parse_operator(spec: str) -> fc.LpOperator:
    """Operator specs: leftdiag:<csv>, rightdiag:<csv>, adiag:<csv>|<csv>,
    schurlin:<n>[:spacing] (collinear distance symbol), schurgen:<n> alias."""
    kind, _, rest = spec.partition(":")
    if kind == "leftdiag":
        return fc.LeftMult(np.diag([complex(v) for v in rest.split(",")]))
    if kind == "rightdiag":
        return fc.RightMult(np.diag([complex(v) for v in rest.split(",")]))
    if kind == "adiag":
        a_s, _, b_s = rest.partition("|")
        a = np.diag([float(v) for v in a_s.split(",")])
        b = np.diag([float(v) for v in b_s.split(",")]) if b_s else a.copy()
        return fc.AdPair(a, b)
    if kind in ("schurlin", "schurgen"):
        parts = rest.split(":")
        n = int(parts[0])
        spacing = float(parts[1]) if len(parts) > 1 else 1.0
        return schur.schur_generator(schur.collinear_symbol(n, spacing))
    raise ValueError(f"unknown operator spec {spec!r}")


def parse_grid(text):
    t_min, t_max, n = text.split(",")
    return sqfn.LogGrid.make(float(t_min), float(t_max), int(n))


def _require_seed(args):
    if args.seed is None:
        raise SystemExit("this subcommand is stochastic: --seed is mandatory")


def _rng_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (columns, rows, exit_hint)
# ---------------------------------------------------------------------------


def cmd_schatten_selftest(args):
    rows = []
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    ident = np.eye(3)
    rows.append(
        {
            "check": "identity_p2",
            "value": schatten_norm(ident, 2),
            "target": math.sqrt(3),
            "ok": abs(schatten_norm(ident, 2) - math.sqrt(3)) <= 1e-12,
        }
    )
    x = _rng_matrix(rng, args.dim)
    y = _rng_matrix(rng, args.dim)
    lhs = schatten_norm(x @ y, 1)
    rhs = schatten_norm(x, 2) * schatten_norm(y, 2)
    rows.append({"check": "hoelder_2_2_1", "value": lhs, "target": rhs, "ok": lhs <= rhs + 1e-9})
    s = x.conj().T @ x
    rec = psd_sqrt(s)
    err = float(np.linalg.norm(rec @ rec - s, 2))
    rows.append({"check": "psd_sqrt_reconstruct", "value": err, "target": 1e-10, "ok": err <= 1e-10 * max(1.0, np.linalg.norm(s, 2))})
    ok = all(r["ok"] for r in rows)
    return ["check", "value", "target", "ok"], rows, EXIT_OK if ok else EXIT_NUMERIC


def cmd_khintchine(args):
    _require_seed(args)
    cfg = ConvexCfg(restarts=args.restarts, iters=args.iters, seed=args.seed)

    def one(trial):
        fam = [
            _rng_matrix(np.random.default_rng(args.seed + 1000 * trial + k), args.dim)
            for k in range(args.family)
        ]
        rep = hvnorms.khintchine_report(fam, args.p, cfg)
        return {
            "trial": trial,
            "p": args.p,
            "radavg": rep.radavg,
            "radnorm": rep.radnorm,
            "side": rep.side,
            "lower_ok": rep.lower_ok,
            "upper_ratio": rep.upper_ratio,
            "solver_status": rep.solver_status or "",
        }

    rows = [one(trial) for trial in range(args.samples)]
    if not all(r["lower_ok"] for r in rows):
        hint = EXIT_NUMERIC
    elif any(r["solver_status"] == "budget-exhausted" for r in rows):
        hint = EXIT_SOLVER
    else:
        hint = EXIT_OK
    cols = ["trial", "p", "radavg", "radnorm", "side", "lower_ok", "upper_ratio",
            "solver_status"]
    return cols, rows, hint


def cmd_tensor_extend(args):
    _require_seed(args)
    rng = np.random.default_rng(args.seed)
    rows = []
    for trial in range(args.samples):
        fam = [_rng_matrix(rng, args.dim) for _ in range(args.family)]
        t = rng.standard_normal((args.family, args.family)) + 1j * rng.standard_normal(
            (args.family, args.family)
        )
        t = t / np.linalg.norm(t, 2)
        rep = hvnorms.tensor_extend(t, fam, args.p)
        rows.append(
            {
                "trial": trial,
                "p": args.p,
                "t_norm": rep.t_norm,
                "col_in": rep.col_in,
                "col_out": rep.col_out,
                "row_in": rep.row_in,
                "row_out": rep.row_out,
                "col_ok": rep.col_contractive,
                "row_ok": rep.row_contractive,
            }
        )
    cols = ["trial", "p", "t_norm", "col_in", "col_out", "row_in", "row_out", "col_ok", "row_ok"]
    ok = all(r["col_ok"] and r["row_ok"] for r in rows)
    return cols, rows, EXIT_OK if ok else EXIT_NUMERIC


def cmd_calculus_check(args):
    op = parse_operator(args.op)
    fids = args.fn.split(",")

    def one(fid):
        f = fc.library(fid)
        if f.klass == "hinf0":
            approx = fc.contour_calculus(op, f)
        else:
            approx = fc.extended_calculus(op, f)
        oracle = fc.eigen_calculus(op, f)
        diff = approx.to_dense() - oracle.to_dense()
        scale = max(float(np.max(np.abs(oracle.to_dense()))), 1e-300)
        return {
            "fn": fid,
            "op": args.op,
            "max_rel_err": float(np.max(np.abs(diff))) / scale,
            "ok": float(np.max(np.abs(diff))) / scale <= args.tol,
        }

    rows = [one(fid) for fid in fids]
    ok = all(r["ok"] for r in rows)
    return ["fn", "op", "max_rel_err", "ok"], rows, EXIT_OK if ok else EXIT_NUMERIC


def cmd_identities(args):
    rows = []
    if args.which == "group-average":
        a = np.diag([float(v) for v in args.diag.split(",")])
        res_mat = fc.group_average_identity(a, n_nodes=args.nodes)
        res_ad = fc.group_average_identity(a, a, n_nodes=args.nodes)
        rows.append({"identity": "group-average:matrix", "residual": res_mat, "ok": res_mat <= 1e-8})
        rows.append({"identity": "group-average:derivation", "residual": res_ad, "ok": res_ad <= 1e-8})
    else:  # subordination
        c = np.diag([float(v) for v in args.diag.split(",")])
        resid, mass = fc.subordination_identity(c, args.t)
        rows.append({"identity": f"subordination:t={args.t}", "residual": resid, "ok": resid <= 1e-5})
        rows.append({"identity": "subordination:mass", "residual": abs(mass - 1.0), "ok": abs(mass - 1.0) <= 1e-8})
    ok = all(r["ok"] for r in rows)
    return ["identity", "residual", "ok"], rows, EXIT_OK if ok else EXIT_NUMERIC


def cmd_sector_profile(args):
    op = parse_operator(args.op)
    prof = fc.sector_type(op, p=args.p)
    rows = [
        {"theta": th, "k_theta": k, "omega_hat": prof.omega_hat, "exact": prof.exact}
        for th, k in prof.constants
    ]
    return ["theta", "k_theta", "omega_hat", "exact"], rows, EXIT_OK


def cmd_rbound(args):
    _require_seed(args)
    op = parse_operator(args.op)
    budget = rbound.SearchCfg(restarts=args.restarts, iters=args.iters)
    prof = rbound.sector_rbound_profile(
        op, args.p, args.theta, budget, seed=args.seed, n_points=args.points
    )
    rows = []
    for row in prof:
        for notion, est in (("col", row.col), ("row", row.row), ("rad", row.rad)):
            witness_path = ""
            if args.out and args.out != "-":
                witness_path = f"{args.out}.{notion}.theta{row.theta:.3f}.witness"
                with open(witness_path, "w", encoding="ascii") as fh:
                    fh.write(f"# selection = {est.selection}\n")
                    fh.write(dumps_family(est.witness))
            rows.append(
                {
                    "notion": notion,
                    "p": est.p,
                    "theta": row.theta,
                    "estimate": est.value,
                    "restarts": est.restarts,
                    "seed": est.seed,
                    "witness_file": witness_path,
                }
            )
    cols = ["notion", "p", "theta", "estimate", "restarts", "seed", "witness_file"]
    return cols, rows, EXIT_OK


SQFN_COLS = [
    "experiment",
    "p",
    "F",
    "n_grid",
    "t_min",
    "t_max",
    "value_col",
    "value_row",
    "value_rad",
    "value_bracket",
    "K1",
    "K2",
    "seed",
]


def cmd_sqfn_equiv(args):
    _require_seed(args)
    op = parse_operator(args.op)
    grid = args.grid or sqfn.LogGrid.for_operator(op)
    f = fc.library(args.fn)
    rep = sqfn.equivalence_experiment(
        op, f, args.p, sample_count=args.samples, seed=args.seed, grid=grid,
        variant=args.variant,
    )
    rng = np.random.default_rng(args.seed)
    x = _rng_matrix(rng, op.dim)
    sr = sqfn.square_report(op, x, f, grid, args.p, with_bracket=args.p < 2)
    row = {
        "experiment": f"sqfn-equiv:{args.variant}",
        "p": args.p,
        "F": args.fn,
        "n_grid": grid.n,
        "t_min": grid.t_min,
        "t_max": grid.t_max,
        "value_col": sr.col,
        "value_row": sr.row,
        "value_rad": sr.rad,
        "value_bracket": sr.bracket if sr.bracket is not None else "",
        "K1": rep.k1_hat,
        "K2": rep.k2_hat,
        "seed": args.seed,
    }
    exhausted = "budget-exhausted" in rep.solver_statuses + sr.solver_statuses
    return SQFN_COLS, [row], EXIT_SOLVER if exhausted else EXIT_OK


def cmd_rowcol_gap(args):
    rows = []
    for n in args.n:
        op = fc.LeftMult(np.diag(2.0 ** np.arange(1, n + 1)))
        grid = args.grid or sqfn.LogGrid.for_operator(op)
        rep = sqfn.row_col_gap(n, args.p, grid)
        rows.append(
            {
                "experiment": f"rowcol-gap:n={n}",
                "p": args.p,
                "F": "sqrtzexp",
                "n_grid": grid.n,
                "t_min": grid.t_min,
                "t_max": grid.t_max,
                "value_col": rep.fc_val,
                "value_row": rep.fr_val,
                "value_rad": max(rep.fc_val, rep.fr_val),
                "value_bracket": "",
                "K1": rep.fr_closed_form,
                "K2": rep.ratio,
                "seed": args.seed if args.seed is not None else "",
            }
        )
    return SQFN_COLS, rows, EXIT_OK


def cmd_schur(args):
    sym = schur.collinear_symbol(args.points, args.spacing)
    op = schur.schur_semigroup(sym, args.t)
    lam_min = float(np.linalg.eigvalsh(0.5 * (op.m + op.m.conj().T))[0])
    amp = schur.amplified_s2_norm(op, args.amplification)
    choi = schur.choi_min_eigenvalue(op)
    rows = [
        {"check": "symbol_min_eigenvalue", "value": lam_min, "ok": lam_min >= -1e-10},
        {
            "check": f"amplified_s2_norm:m={args.amplification}",
            "value": amp,
            "ok": amp <= 1.0 + 1e-9,
        },
        {"check": "choi_min_eigenvalue", "value": choi, "ok": choi >= -1e-10},
    ]
    ok = all(r["ok"] for r in rows)
    return ["check", "value", "ok"], rows, EXIT_OK if ok else EXIT_NUMERIC


# word pools of the dyadic shells |g| = 1, 2, 4
DYADIC_POOLS = (
    ((1,), (-1,), (2,), (-2,)),
    ((1, 1), (1, 2), (2, 1), (-1, 2), (2, 2)),
    ((1, 2, 1, 2), (1, 1, 2, 2), (2, -1, 2, 1), (1, 2, -1, -2)),
)


def cmd_freegroup(args):
    rows = []
    if args.which == "norms":
        p = args.even_p
        # ||lam(a) + lam(a^-1)||_p^p counts the closed walks of length p on Z
        golden = (
            ("a_plus_ainv", freegroup.GroupPoly.lam("a") + freegroup.GroupPoly.lam("A"),
             math.comb(p, p // 2) ** (1 / p)),
            ("group_element", freegroup.GroupPoly.lam("a b"), 1.0),
        )
        for name, x, target in golden:
            val = x.norm_even(p)
            rows.append(
                {
                    "check": f"norm{p}_{name}",
                    "value": val,
                    "target": target,
                    "ok": abs(val - target) <= 1e-12,
                }
            )
        cols = ["check", "value", "target", "ok"]
    elif args.which == "poisson":
        _require_seed(args)
        rng = np.random.default_rng(args.seed)
        words = [(), (1,), (2,), (1, 2), (-1, 2), (1, 1), (2, -1, 2)]
        worst = 0.0
        for trial in range(args.samples):
            x = freegroup.GroupPoly(
                {
                    w: complex(rng.standard_normal(), rng.standard_normal())
                    for w in words
                }
            )
            t = float(rng.uniform(0.0, 2.0))
            ratio = x.poisson(t).norm_even(args.even_p) / x.norm_even(args.even_p)
            worst = max(worst, ratio)
            rows.append({"trial": trial, "t": t, "ratio": ratio, "ok": ratio <= 1 + 1e-10})
        cols = ["trial", "t", "ratio", "ok"]
    else:  # dyadic
        _require_seed(args)
        for trial in range(args.samples):
            rng = np.random.default_rng(args.seed + trial)
            shells = [
                freegroup.GroupPoly(
                    {
                        w: complex(rng.standard_normal(), rng.standard_normal())
                        for w in DYADIC_POOLS[k]
                    }
                )
                for k in range(args.shells)
            ]
            const = freegroup.dyadic_unconditionality(shells, args.even_p)
            rows.append({"trial": trial, "constant": const, "ok": math.isfinite(const)})
        cols = ["trial", "constant", "ok"]
    ok = all(r["ok"] for r in rows)
    return cols, rows, EXIT_OK if ok else EXIT_NUMERIC


def cmd_qfock(args):
    rows = []
    if args.which == "gram":
        for level in range(args.levels + 1):
            lam = np.linalg.eigvalsh(fock.q_gram(level, args.d, args.q))
            rows.append(
                {
                    "level": level,
                    "min_eigenvalue": float(lam[0]),
                    "ok": lam[0] >= -1e-10,
                }
            )
        cols = ["level", "min_eigenvalue", "ok"]
    elif args.which == "moments":
        h = np.ones(args.d) / math.sqrt(args.d)
        m2 = fock.gaussian_moment([h, h], args.q).real
        m4 = fock.gaussian_moment([h] * 4, args.q).real
        rows = [
            {"moment": "second", "value": m2, "target": 1.0, "ok": abs(m2 - 1.0) <= 1e-10},
            {
                "moment": "fourth",
                "value": m4,
                "target": 2.0 + args.q,
                "ok": abs(m4 - (2.0 + args.q)) <= 1e-10,
            },
        ]
        cols = ["moment", "value", "target", "ok"]
    else:  # ou
        basis = fock.FockBasis(args.d, args.levels, args.q)
        ou = fock.ou_semigroup(basis, args.t)
        for level in range(args.levels + 1):
            s, e = basis.level_start[level], basis.level_start[level + 1]
            blk = ou.mat[s:e, s:e]
            err = float(np.max(np.abs(blk - math.exp(-args.t * level) * np.eye(e - s))))
            rows.append({"level": level, "eigen_error": err, "ok": err <= 1e-12})
        cols = ["level", "eigen_error", "ok"]
    ok = all(r["ok"] for r in rows)
    return cols, rows, EXIT_OK if ok else EXIT_NUMERIC


def cmd_clifford(args):
    rep = clifford.spin_generators(args.n)
    rows = []
    if args.which == "semigroup":
        top = clifford.clifford_semigroup(rep, args.t)
        worst = 0.0
        for subset in clifford.all_subsets(args.n):
            v = clifford.v_f(rep, subset)
            err = float(
                np.max(np.abs(top.apply(v) - math.exp(-args.t * len(subset)) * v))
            )
            worst = max(worst, err)
        choi_min = float(np.linalg.eigvalsh(fc.choi_matrix(top))[0])
        rows.append({"check": "eigenvalue_defect", "value": worst, "ok": worst <= 1e-12})
        rows.append({"check": "choi_min_eigenvalue", "value": choi_min, "ok": choi_min >= -1e-10})
    else:  # multiplier
        f = fc.library(args.fn)
        mult = clifford.clifford_multiplier(
            rep, lambda m: complex(f(np.array([float(m)]))[0])
        )
        rng = np.random.default_rng(args.seed if args.seed is not None else 0)
        x = _rng_matrix(rng, rep.dim)
        out = mult.apply(x)
        rows.append(
            {
                "check": f"multiplier_{args.fn}_output_norm",
                "value": float(np.linalg.norm(out, 2)),
                "ok": bool(np.all(np.isfinite(out))),
            }
        )
    ok = all(r["ok"] for r in rows)
    return ["check", "value", "ok"], rows, EXIT_OK if ok else EXIT_NUMERIC


def cmd_martingale(args):
    tower = martingale.MartingaleTower(args.n_factors)
    rows = []
    if args.which == "stein":
        _require_seed(args)
        budget = rbound.SearchCfg(restarts=args.restarts, iters=args.iters, lengths=(1, 2))
        est = martingale.stein_colbound(tower, args.p, budget, seed=args.seed)
        rows.append(
            {
                "check": f"stein_col_p{args.p}",
                "value": est.value,
                "ok": math.isfinite(est.value) and est.value >= 1.0 - 1e-6,
            }
        )
    else:  # cesaro
        _require_seed(args)
        rng = np.random.default_rng(args.seed)
        op = martingale.CondExpOp(tower, 1)
        x = _rng_matrix(rng, tower.dim)
        rep = martingale.cesaro_square_function(op, x, args.m_count, args.p)
        coeff = math.sqrt(sum(1.0 / (m * (m + 1) ** 2) for m in range(1, args.m_count + 1)))
        target = coeff * schatten_norm(op.apply(x) - x, args.p)
        rows.append(
            {
                "check": "cesaro_single_expectation",
                "value": rep.value,
                "ok": abs(rep.value - target) <= 1e-8 * max(target, 1.0),
            }
        )
    ok = all(r["ok"] for r in rows)
    return ["check", "value", "ok"], rows, EXIT_OK if ok else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _checked(convert, check):
    """An argparse type: convert the text, then validate it with ``check``;
    a ValueError from either is a usage error."""

    def parse(text):
        try:
            return check(convert(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def _at_least_one(n: int) -> int:
    if n < 1:
        raise ValueError(f"must be at least 1, got {n}")
    return n


_COUNT = _checked(int, _at_least_one)


def _spec(parse):
    """An argparse type for a spec that must parse; the text is kept, so
    data rows echo it as given."""

    def check(text):
        parse(text)
        return text

    return _checked(str, check)


def _add_common(sp):
    sp.add_argument("--p", type=_checked(float, check_exponent), default=2.0, help="Schatten exponent")
    sp.add_argument("--seed", type=int, default=None, help="RNG seed (mandatory for stochastic runs)")
    sp.add_argument("--samples", type=int, default=10, help="number of trials/rows")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--strict", action="store_true", help="treat solver-budget warnings as failures")
    sp.add_argument("--config", default=None, help="flat JSON config file; flags override")
    sp.add_argument("--grid", type=_checked(str, parse_grid), default=None, help="tmin,tmax,n quadrature window")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nclp", description=__doc__)
    ap.add_argument("--version", action="version", version=f"nclp {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("schatten-selftest", help="norm/modulus/sqrt identities")
    sp.add_argument("--dim", type=_COUNT, default=4)
    sp.set_defaults(fn_impl=cmd_schatten_selftest)
    _add_common(sp)

    sp = sub.add_parser("khintchine", help="sign-average sandwich ratios for random families")
    sp.add_argument("--dim", type=_COUNT, default=3)
    sp.add_argument("--family", type=_COUNT, default=4, help="family length")
    sp.add_argument("--restarts", type=_COUNT, default=8)
    sp.add_argument("--iters", type=_COUNT, default=200)
    sp.set_defaults(fn_impl=cmd_khintchine)
    _add_common(sp)

    sp = sub.add_parser("tensor-extend", help="index-space contraction checks")
    sp.add_argument("--dim", type=_COUNT, default=3)
    sp.add_argument("--family", type=_COUNT, default=4)
    sp.set_defaults(fn_impl=cmd_tensor_extend)
    _add_common(sp)

    sp = sub.add_parser("calculus-check", help="contour/extended calculus vs the eigen oracle")
    sp.add_argument("--fn", type=_spec(lambda t: [fc.library(f) for f in t.split(",")]),
                    default="g", help="comma-separated function ids")
    sp.add_argument("--A", dest="op", type=_spec(parse_operator), default="leftdiag:1,4")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.set_defaults(fn_impl=cmd_calculus_check)
    _add_common(sp)

    sp = sub.add_parser("identities", help="Gaussian group-average / square-root subordination")
    sp.add_argument("which", choices=("group-average", "subordination"))
    sp.add_argument("--diag", default="1,2", help="diagonal entries of the generator")
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--nodes", type=_COUNT, default=64)
    sp.set_defaults(fn_impl=cmd_identities)
    _add_common(sp)

    sp = sub.add_parser("sector-profile", help="type angle and resolvent constants")
    sp.add_argument("--A", dest="op", type=_spec(parse_operator), default="leftdiag:1,2")
    sp.set_defaults(fn_impl=cmd_sector_profile)
    _add_common(sp)

    sp = sub.add_parser("rbound", help="boundedness constants of scaled-resolvent families")
    sp.add_argument("--A", dest="op", type=_spec(parse_operator), default="leftdiag:0.5,1,2")
    sp.add_argument("--theta", type=_checked(float, rbound.check_test_angle), nargs="+",
                    default=[0.8], help="test angles in (0, pi)")
    sp.add_argument("--restarts", type=_COUNT, default=16)
    sp.add_argument("--iters", type=_COUNT, default=25)
    sp.add_argument("--points", type=_checked(int, fc.check_ray_points), default=12,
                    help="ray family size (even)")
    sp.set_defaults(fn_impl=cmd_rbound)
    _add_common(sp)

    sp = sub.add_parser("sqfn-equiv", help="square-function norm equivalence constants")
    sp.add_argument("--A", dest="op", type=_spec(parse_operator), default="leftdiag:0.5,1,2.5,4")
    sp.add_argument("--fn", type=_spec(fc.library), default="sqrtzexp")
    sp.add_argument("--variant", choices=("col", "row", "rad"), default="col")
    sp.set_defaults(fn_impl=cmd_sqfn_equiv)
    _add_common(sp)

    sp = sub.add_parser("rowcol-gap", help="row/column square function gap family")
    sp.add_argument("--n", type=_COUNT, nargs="+", default=[4, 8, 16])
    sp.set_defaults(fn_impl=cmd_rowcol_gap)
    _add_common(sp)

    sp = sub.add_parser("schur", help="distance-symbol semigroup checks")
    sp.add_argument("--points", type=_COUNT, default=8)
    sp.add_argument("--spacing", type=float, default=1.0)
    sp.add_argument("--t", type=float, default=0.7)
    sp.add_argument("--amplification", type=_COUNT, default=4)
    sp.set_defaults(fn_impl=cmd_schur)
    _add_common(sp)

    sp = sub.add_parser("freegroup", help="free-group norms / length-decay / dyadic shells")
    sp.add_argument("which", choices=("norms", "poisson", "dyadic"))
    sp.add_argument("--even-p", type=int, default=4, choices=freegroup.EVEN_PS)
    sp.add_argument("--shells", type=int, default=3,
                    choices=range(1, len(DYADIC_POOLS) + 1))
    sp.set_defaults(fn_impl=cmd_freegroup)
    _add_common(sp)

    sp = sub.add_parser("qfock", help="twisted Gram positivity / moments / OU spectrum")
    sp.add_argument("which", choices=("gram", "moments", "ou"))
    sp.add_argument("--q", type=_checked(float, fock.check_q), default=0.5,
                    help="deformation in (-1, 1)")
    sp.add_argument("--d", type=_COUNT, default=2)
    sp.add_argument("--levels", type=_checked(int, fock.check_level), default=4, help="top level, 0..6")
    sp.add_argument("--t", type=float, default=0.8)
    sp.set_defaults(fn_impl=cmd_qfock)
    _add_common(sp)

    sp = sub.add_parser("clifford", help="spin-system semigroup / length multiplier")
    sp.add_argument("which", choices=("semigroup", "multiplier"))
    sp.add_argument("--n", type=_checked(int, clifford.check_frame_n), default=3,
                    help=f"generator count, 1..{clifford.DIAG_OP_MAX}")
    sp.add_argument("--t", type=float, default=0.4)
    sp.add_argument("--fn", type=_spec(fc.library), default="zis:0.5")
    sp.set_defaults(fn_impl=cmd_clifford)
    _add_common(sp)

    sp = sub.add_parser("martingale", help="tower boundedness / Cesaro increments")
    sp.add_argument("which", choices=("stein", "cesaro"))
    sp.add_argument("--n-factors", type=_COUNT, default=3)
    sp.add_argument("--m-count", type=_COUNT, default=24)
    sp.add_argument("--restarts", type=_COUNT, default=8)
    sp.add_argument("--iters", type=_COUNT, default=20)
    sp.set_defaults(fn_impl=cmd_martingale)
    _add_common(sp)

    return ap


def _with_config(argv, args) -> list:
    """argv with the config file's entries as flag tokens right after the
    subcommand: argparse checks them like typed flags, and the explicit
    flags, coming later, win.  Keys are flag names ("even_p" or "even-p")."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            conf = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers malformed JSON
        raise SystemExit(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(conf, dict):
        raise SystemExit("config file must hold a flat JSON object")
    tokens = []
    for key, value in conf.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            tokens += [flag] if value else []
        elif isinstance(value, list):
            tokens += [flag] + [str(v) for v in value]
        else:
            tokens.append(f"{flag}={value}")
    at = argv.index(args.command) + 1
    return argv[:at] + tokens + argv[at:]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.config:
            args = ap.parse_args(_with_config(argv, args))
    except SystemExit as exc:
        if isinstance(exc.code, str):  # an unreadable config file
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        return EXIT_USAGE if exc.code not in (0, None) else 0

    start = time.time()
    meta = {
        "tool": "nclp",
        "version": __version__,
        "command": " ".join([args.command] + [t for t in argv if t != args.command]),
    }
    try:
        columns, rows, hint = args.fn_impl(args)
    except SystemExit as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericsError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    meta["wall_time_s"] = f"{time.time() - start:.3f}"
    write_artifact(args.out, args.format, meta, columns, rows)
    if hint == EXIT_SOLVER and args.strict:
        return EXIT_NUMERIC
    return hint


if __name__ == "__main__":
    sys.exit(main())
