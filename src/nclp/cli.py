"""Reproducible experiment runner.

Every subcommand writes one artifact per run: a header block (tool
version, config echo, the subcommand's diagnostics, wall time) followed
by data rows, as CSV (tables) or JSON (machine use).  Identical
configuration and seed produce byte-identical data rows; wall time and
diagnostics live only in the header.  A flat JSON config file can
prefill any flag the subcommand has (explicit flags win); each flag
exists only on the subcommands that read it.

A subcommand only builds its rows; the columns are the keys of the first
row, and the exit code follows from the artifact alone: 2 for a usage
error, 3 for a numeric failure or for a row with a false ``ok`` or
``*_ok`` cell, else 4 (a solver warning) when a row's ``solver_status``
or the header's (``sqfn-equiv`` and ``martingale cesaro`` write the worst
status over their solves as ``# solver_status``) is ``budget-exhausted``:
a split-norm solve ended with its relative duality gap above tolerance.
``--strict``, where a subcommand has it, hardens that 4 to 3.  Otherwise 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from typing import Callable, NamedTuple

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


def write_artifact(path, fmt, meta, rows):
    """Emit header (meta) plus data rows, CSV or JSON; the columns are the
    keys of the first row."""
    columns = list(rows[0])
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
    schurlin:<n>[:spacing] (collinear distance symbol)."""
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
    if kind == "schurlin":
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
# subcommand implementations: each returns its rows, optionally paired
# with a dict of header fields
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
    return rows


def cmd_khintchine(args):
    _require_seed(args)
    cfg = ConvexCfg(iters=args.iters)

    def one(trial):
        fam = [
            _rng_matrix(np.random.default_rng(args.seed + 1000 * trial + k), args.dim)
            for k in range(args.family)
        ]
        rep = hvnorms.khintchine_report(fam, args.p, cfg)
        solve = rep.solve
        return {
            "trial": trial,
            "p": args.p,
            "radavg": rep.radavg,
            "radnorm": rep.radnorm,
            "radnorm_lower": "" if solve is None else solve.lower,
            "side": rep.side,
            "lower_ok": rep.lower_ok,
            "upper_ratio": rep.upper_ratio,
            "solver_status": "" if solve is None else solve.status,
        }

    return [one(trial) for trial in range(args.samples)]


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
    return rows


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

    return [one(fid) for fid in fids]


def cmd_identities(args):
    rows = []
    if args.which == "group-average":
        a = np.diag(args.diag)
        res_mat = fc.group_average_identity(a, n_nodes=args.nodes)
        res_ad = fc.group_average_identity(a, a, n_nodes=args.nodes)
        rows.append({"identity": "group-average:matrix", "residual": res_mat, "ok": res_mat <= 1e-8})
        rows.append({"identity": "group-average:derivation", "residual": res_ad, "ok": res_ad <= 1e-8})
    else:  # subordination
        c = np.diag(args.diag)
        resid, mass = fc.subordination_identity(c, args.t)
        rows.append({"identity": f"subordination:t={args.t}", "residual": resid, "ok": resid <= 1e-5})
        rows.append({"identity": "subordination:mass", "residual": abs(mass - 1.0), "ok": abs(mass - 1.0) <= 1e-8})
    return rows


def cmd_sector_profile(args):
    op = parse_operator(args.op)
    prof = fc.sector_type(op, p=args.p)
    return [
        {"theta": th, "k_theta": k, "omega_hat": prof.omega_hat, "exact": prof.exact}
        for th, k in prof.constants
    ]


def cmd_rbound(args):
    _require_seed(args)
    op = parse_operator(args.op)
    budget = rbound.SearchCfg(restarts=args.restarts, iters=args.iters)
    prof = rbound.sector_rbound_profile(
        op, args.p, args.theta, budget, seed=args.seed, n_points=args.points
    )
    rows, header = [], {}
    for row in prof:
        for notion, est in (("col", row.col), ("row", row.row), ("rad", row.rad)):
            if est.within(rbound.UPPER_RTOL):  # the estimate is its certified upper bound
                header[f"at_upper.{notion}.theta{row.theta:.3f}"] = repr(est.upper)
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
    return rows, header


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
    sr = sqfn.square_report(op, x, f, grid, args.p)
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
    return [row], {"grid_truncated": sr.truncated, **_solver_header(rep.solves + sr.solves)}


def _solver_header(solves) -> dict:
    """The header fields of a run's split-norm solves: the largest relative
    gap and the worst status, both None when the run solved nothing."""
    exhausted = any(res.status == "budget-exhausted" for res in solves)
    return {
        "solver_gap_max": max((res.gap for res in solves), default=None),
        "solver_status": "budget-exhausted" if exhausted else "converged" if solves else None,
    }


def cmd_rowcol_gap(args):
    rows = []
    for n in args.n:
        rep = sqfn.row_col_gap(n, args.p, args.grid)
        rows.append(
            {
                "experiment": f"rowcol-gap:n={n}",
                "p": args.p,
                "F": "sqrtzexp",
                "n_grid": rep.grid.n,
                "t_min": rep.grid.t_min,
                "t_max": rep.grid.t_max,
                "value_col": rep.fc_val,
                "value_row": rep.fr_val,
                "value_rad": max(rep.fc_val, rep.fr_val),
                "value_bracket": "",
                "K1": rep.fr_closed_form,
                "K2": rep.ratio,
                "seed": "",
            }
        )
    return rows


def cmd_schur(args):
    sym = schur.collinear_symbol(args.points, args.spacing)
    op = schur.schur_semigroup(sym, args.t)
    lam_min = float(np.linalg.eigvalsh(0.5 * (op.m + op.m.conj().T))[0])
    amp = schur.amplified_s2_norm(op, args.amplification)
    choi = schur.choi_min_eigenvalue(op)
    return [
        {"check": "symbol_min_eigenvalue", "value": lam_min, "ok": lam_min >= -1e-10},
        {
            "check": f"amplified_s2_norm:m={args.amplification}",
            "value": amp,
            "ok": amp <= 1.0 + 1e-9,
        },
        {"check": "choi_min_eigenvalue", "value": choi, "ok": choi >= -1e-10},
    ]


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
    elif args.which == "poisson":
        _require_seed(args)
        rng = np.random.default_rng(args.seed)
        words = [(), (1,), (2,), (1, 2), (-1, 2), (1, 1), (2, -1, 2)]
        for trial in range(args.samples):
            x = freegroup.GroupPoly(
                {
                    w: complex(rng.standard_normal(), rng.standard_normal())
                    for w in words
                }
            )
            t = float(rng.uniform(0.0, 2.0))
            ratio = x.poisson(t).norm_even(args.even_p) / x.norm_even(args.even_p)
            rows.append({"trial": trial, "t": t, "ratio": ratio, "ok": ratio <= 1 + 1e-10})
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
    return rows


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
    else:  # ou
        basis = fock.FockBasis(args.d, args.levels, args.q)
        ou = fock.ou_semigroup(basis, args.t)
        for level in range(args.levels + 1):
            s, e = basis.level_start[level], basis.level_start[level + 1]
            blk = ou[s:e, s:e]
            err = float(np.max(np.abs(blk - math.exp(-args.t * level) * np.eye(e - s))))
            rows.append({"level": level, "eigen_error": err, "ok": err <= 1e-12})
    return rows


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
    return rows


def cmd_martingale(args):
    tower = martingale.MartingaleTower(args.n_factors)
    _require_seed(args)
    if args.which == "stein":
        budget = rbound.SearchCfg(restarts=args.restarts, iters=args.iters, lengths=(1, 2))
        est = martingale.stein_colbound(tower, args.p, budget, seed=args.seed)
        ok = math.isfinite(est.value) and est.value >= 1.0 - 1e-6
        return [{"check": f"stein_col_p{args.p}", "value": est.value, "ok": ok}]
    # cesaro
    rng = np.random.default_rng(args.seed)
    op = martingale.CondExpOp(tower, 1)
    x = _rng_matrix(rng, tower.dim)
    rep = martingale.cesaro_square_function(op, x, args.m_count, args.p)
    coeff = math.sqrt(sum(1.0 / (m * (m + 1) ** 2) for m in range(1, args.m_count + 1)))
    target = coeff * schatten_norm(op.apply(x) - x, args.p)
    row = {"check": "cesaro_single_expectation", "value": rep.value,
           "ok": abs(rep.value - target) <= 1e-8 * max(target, 1.0)}
    return [row], _solver_header(rep.solves)


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


def _finite_floats(text: str) -> list:
    """Comma-separated finite floats."""
    vals = [float(v) for v in text.split(",")]
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"needs finite values, got {text!r}")
    return vals


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {x}")
    return x


def _nonnegative(x: float) -> float:
    if not (math.isfinite(x) and x >= 0):
        raise ValueError(f"must be finite and >= 0, got {x}")
    return x


def _positive(x: float) -> float:
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"must be finite and > 0, got {x}")
    return x


def _spec(parse):
    """An argparse type for a spec that must parse; the text is kept, so
    data rows echo it as given."""

    def check(text):
        parse(text)
        return text

    return _checked(str, check)


# flags shared by several subcommands; each subcommand names the ones it reads
SHARED_FLAGS = {
    "--p": dict(type=_checked(float, check_exponent), default=2.0, help="Schatten exponent"),
    "--seed": dict(type=int, default=None, help="RNG seed (mandatory for stochastic runs)"),
    "--samples": dict(type=_COUNT, default=10, help="number of trials/rows"),
    "--strict": dict(action="store_true", help="treat solver warnings (gap above tolerance) as failures"),
    "--grid": dict(type=_checked(str, parse_grid), default=None, help="tmin,tmax,n quadrature window"),
}


def _add_common(sp, *shared):
    """The named ``SHARED_FLAGS``, then the flags of every subcommand."""
    for flag in shared:
        sp.add_argument(flag, **SHARED_FLAGS[flag])
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--config", default=None, help="flat JSON config file; flags override")


def _add_flags(sp, flags, reads):
    """The flags a subcommand reads: its own from ``flags``, the rest from
    ``SHARED_FLAGS``.  ``reads`` names them, or maps each mode of the
    subcommand to the flags it reads: the modes become nested subparsers
    (dest ``which``), each with only its own flags."""
    if isinstance(reads, dict):
        modes = sp.add_subparsers(dest="which", required=True)
        for mode, names in reads.items():
            _add_flags(modes.add_parser(mode), flags, names)
        return
    for name in reads:
        if name in flags:
            sp.add_argument(name, **flags[name])
    _add_common(sp, *(name for name in reads if name not in flags))


class Subcommand(NamedTuple):
    help: str
    impl: Callable
    flags: dict  # the subcommand's own flags
    reads: object  # the flag names it reads, or a dict of them per mode


SUBCOMMANDS = {
    "schatten-selftest": Subcommand("norm/modulus/sqrt identities", cmd_schatten_selftest, {
        "--dim": dict(type=_COUNT, default=4),
    }, ("--dim", "--seed")),
    "khintchine": Subcommand("sign-average sandwich ratios for random families", cmd_khintchine, {
        "--dim": dict(type=_COUNT, default=3),
        "--family": dict(type=_COUNT, default=4, help="family length"),
        "--iters": dict(type=_COUNT, default=ConvexCfg.iters,
                        help="L-BFGS iterations per smoothing stage of the p < 2 solver"),
    }, ("--dim", "--family", "--iters", "--p", "--seed", "--samples", "--strict")),
    "tensor-extend": Subcommand("index-space contraction checks", cmd_tensor_extend, {
        "--dim": dict(type=_COUNT, default=3),
        "--family": dict(type=_COUNT, default=4),
    }, ("--dim", "--family", "--p", "--seed", "--samples")),
    "calculus-check": Subcommand("contour/extended calculus vs the eigen oracle", cmd_calculus_check, {
        "--fn": dict(type=_spec(lambda t: [fc.library(f) for f in t.split(",")]),
                     default="g", help="comma-separated function ids"),
        "--A": dict(dest="op", type=_spec(parse_operator), default="leftdiag:1,4"),
        "--tol": dict(type=_checked(float, _positive), default=1e-6),
    }, ("--fn", "--A", "--tol")),
    "identities": Subcommand("Gaussian group-average / square-root subordination", cmd_identities, {
        "--diag": dict(type=_checked(str, _finite_floats), default="1,2",
                       help="diagonal entries of the generator"),
        "--t": dict(type=_checked(float, _nonnegative), default=1.0),
        "--nodes": dict(type=_COUNT, default=64),
    }, {"group-average": ("--diag", "--nodes"), "subordination": ("--diag", "--t")}),
    "sector-profile": Subcommand("type angle and resolvent constants", cmd_sector_profile, {
        "--A": dict(dest="op", type=_spec(parse_operator), default="leftdiag:1,2"),
    }, ("--A", "--p")),
    "rbound": Subcommand("boundedness constants of scaled-resolvent families", cmd_rbound, {
        "--A": dict(dest="op", type=_spec(parse_operator), default="leftdiag:0.5,1,2"),
        "--theta": dict(type=_checked(float, rbound.check_test_angle), nargs="+",
                        default=[0.8], help="test angles in (0, pi)"),
        "--restarts": dict(type=_COUNT, default=16),
        "--iters": dict(type=_COUNT, default=25),
        "--points": dict(type=_checked(int, fc.check_ray_points), default=12,
                         help="ray family size (even)"),
    }, ("--A", "--theta", "--restarts", "--iters", "--points", "--p", "--seed")),
    "sqfn-equiv": Subcommand("square-function norm equivalence constants", cmd_sqfn_equiv, {
        "--A": dict(dest="op", type=_spec(parse_operator), default="leftdiag:0.5,1,2.5,4"),
        "--fn": dict(type=_spec(fc.library), default="sqrtzexp"),
        "--variant": dict(choices=("col", "row", "rad"), default="col"),
    }, ("--A", "--fn", "--variant", "--p", "--seed", "--samples", "--strict", "--grid")),
    "rowcol-gap": Subcommand("row/column square function gap family", cmd_rowcol_gap, {
        "--n": dict(type=_COUNT, nargs="+", default=[4, 8, 16]),
        "--p": dict(type=_checked(float, sqfn.check_gap_exponent), default=4.0,
                    help="Schatten exponent above 2"),
    }, ("--n", "--p", "--grid")),
    "schur": Subcommand("distance-symbol semigroup checks", cmd_schur, {
        "--points": dict(type=_COUNT, default=8),
        "--spacing": dict(type=_checked(float, _finite), default=1.0),
        "--t": dict(type=_checked(float, _nonnegative), default=0.7),
        "--amplification": dict(type=_COUNT, default=4),
    }, ("--points", "--spacing", "--t", "--amplification")),
    "freegroup": Subcommand("free-group norms / length-decay / dyadic shells", cmd_freegroup, {
        "--even-p": dict(type=int, default=4, choices=freegroup.EVEN_PS),
        "--shells": dict(type=int, default=3, choices=range(1, len(DYADIC_POOLS) + 1)),
    }, {"norms": ("--even-p",), "poisson": ("--even-p", "--seed", "--samples"),
        "dyadic": ("--even-p", "--seed", "--samples", "--shells")}),
    "qfock": Subcommand("twisted Gram positivity / moments / OU spectrum", cmd_qfock, {
        "--q": dict(type=_checked(float, fock.check_q), default=0.5, help="deformation in (-1, 1)"),
        "--d": dict(type=_COUNT, default=2),
        "--levels": dict(type=_checked(int, fock.check_level), default=4, help="top level, 0..6"),
        "--t": dict(type=_checked(float, _nonnegative), default=0.8),
    }, {"gram": ("--q", "--d", "--levels"), "moments": ("--q", "--d"),
        "ou": ("--q", "--d", "--levels", "--t")}),
    "clifford": Subcommand("spin-system semigroup / length multiplier", cmd_clifford, {
        "--n": dict(type=_checked(int, clifford.check_frame_n), default=3,
                    help=f"generator count, 1..{clifford.DIAG_OP_MAX}"),
        "--t": dict(type=_checked(float, _nonnegative), default=0.4),
        "--fn": dict(type=_spec(fc.library), default="zis:0.5"),
    }, {"semigroup": ("--n", "--t"), "multiplier": ("--n", "--fn", "--seed")}),
    "martingale": Subcommand("tower boundedness / Cesaro increments", cmd_martingale, {
        "--n-factors": dict(type=_COUNT, default=3),
        "--m-count": dict(type=_COUNT, default=24),
        "--restarts": dict(type=_COUNT, default=8),
        "--iters": dict(type=_COUNT, default=20),
    }, {"stein": ("--n-factors", "--p", "--seed", "--restarts", "--iters"),
        "cesaro": ("--n-factors", "--m-count", "--p", "--seed")}),
}


def build_parser(argv) -> argparse.ArgumentParser:
    """The nclp parser for ``argv``.  Every subcommand is on it with its
    help, so that ``nclp --help`` lists them all and a wrong name is an
    invalid choice, but only the one argv names (its first token that is
    not a flag) gets its arguments."""
    ap = argparse.ArgumentParser(prog="nclp", description=__doc__)
    ap.add_argument("--version", action="version", version=f"nclp {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    named = next((t for t in argv if not t.startswith("-")), None)
    for name, cmd in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        sp.set_defaults(fn_impl=cmd.impl)
        if name == named:
            _add_flags(sp, cmd.flags, cmd.reads)
    return ap


def _with_config(argv, args) -> list:
    """argv with the config file's entries as flag tokens right after the
    subcommand and its mode, if it has one: argparse checks them like typed
    flags, and the explicit flags, coming later, win.  Keys are flag names
    ("even_p" or "even-p")."""
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
    if getattr(args, "which", None):  # a mode's flags live on its own parser
        at = argv.index(args.which, at) + 1
    return argv[:at] + tokens + argv[at:]


def exit_code(meta, rows, strict=False) -> int:
    """The exit code of an artifact: 3 when a row has a false ``ok`` or
    ``*_ok`` cell; else 4 (3 if ``strict``) when a row's or the header's
    ``solver_status`` is ``budget-exhausted``; else 0."""
    if any(not row[k] for row in rows for k in row if k == "ok" or k.endswith("_ok")):
        return EXIT_NUMERIC
    statuses = [row.get("solver_status") for row in rows] + [meta.get("solver_status")]
    if "budget-exhausted" in statuses:
        return EXIT_NUMERIC if strict else EXIT_SOLVER
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser(argv)
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
        result = args.fn_impl(args)
    except SystemExit as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericsError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    rows, header = result if isinstance(result, tuple) else (result, {})
    meta.update(header)
    meta["wall_time_s"] = f"{time.time() - start:.3f}"
    write_artifact(args.out, args.format, meta, rows)
    return exit_code(meta, rows, getattr(args, "strict", False))


if __name__ == "__main__":
    sys.exit(main())
