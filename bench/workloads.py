"""The three benchmark workloads, each a seeded list of checked cases.

``build(name, seed)`` constructs every input a workload uses (operators,
library functions with their decay probes, AdPair eigendecompositions,
LogGrids, families, group polynomials); this is the set-up that
``setup_s`` times.  Only these generated inputs reach nclp.  Shapes and
budgets are fixed, and the seed draws only the values, so the work done
per pass does not depend on the seed.

* ``calculus`` -- H-infinity calculus against the eigen oracle plus the
  semigroup-model checks.  funcalc does nearly all the work; there is no
  optim, rbound or sign enumeration.
* ``squarefn`` -- square functions on the default 512-node grid and
  split-norm infima over tall node stacks (optim on 2048x4, 192x8).
* ``signs`` -- exact sign enumeration, small-stack optim (sum norms),
  rbound ascent and free-group convolution.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from functools import partial

import numpy as np

from harness import Case, Context, check
from nclp import cli, hvnorms, optim, rbound, sqfn
from nclp import funcalc as fc
from nclp.core import psd_sqrt, schatten_norm
from nclp.models import clifford, fock, freegroup, martingale, schur

WORKLOADS = ("calculus", "squarefn", "signs")


def build(name: str, seed: int) -> list[Case]:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return {"calculus": _calculus, "squarefn": _squarefn, "signs": _signs}[name](seed)


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent stream per input group, so adding one leaves the others."""
    return np.random.default_rng([seed, stream])


def _cmat(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

# Searches that stop early once they stall (the power iterations of
# sector_type, the rad ascent of rbound) do seed-dependent amounts of work.
# They run on fixed inputs with this fixed seed, so that the work per pass
# is the same for every workload seed.
SEARCH_SEED = 0

CALCULUS_FNS = ("g", "gn:5", "zexp", "sqrtzexp", "heat:0.7", "zis:0.8")


def _unitary(rng, d):
    q, _ = np.linalg.qr(_cmat(rng, d, d))
    return q


def _sylvester_dense(rng, d):
    """DenseOp of x -> A x + x B with A, B upper bidiagonal (non-normal).

    The spectrum a_i + b_j is separated: the b_j are spaced wider than
    the spread of the a_i, so the eigen oracle stays well conditioned.
    """
    a = 1.0 + 0.5 * np.arange(d) + rng.uniform(0.0, 0.1, d)
    b = (0.5 * d + 0.5) * np.arange(d) + rng.uniform(0.0, 0.1, d)
    am = np.diag(a) + np.diag(rng.uniform(0.2, 0.6, d - 1), 1)
    bm = np.diag(b) + np.diag(rng.uniform(0.2, 0.6, d - 1), 1)
    eye = np.eye(d)
    return fc.DenseOp(np.kron(am, eye) + np.kron(eye, bm.T))


def _calculus_operators(rng):
    """(name, kind, operator); kind labels the contour path family."""
    def posdiag(d):
        return np.diag(np.sort(rng.uniform(0.3, 4.0, d)))

    lo = rng.uniform(0.5, 1.5)
    nonnormal = np.array([[lo, rng.uniform(0.5, 1.5)], [0.0, lo + rng.uniform(0.5, 1.5)]])
    u4, v4 = _unitary(rng, 4), _unitary(rng, 4)
    alpha = np.sort(rng.uniform(4.0, 7.0, 4))
    beta = np.sort(rng.uniform(0.0, 2.0, 4))
    ad = fc.AdPair((u4 * alpha) @ u4.conj().T, (v4 * beta) @ v4.conj().T)
    return [
        ("leftdiag4", "mult", fc.LeftMult(posdiag(4))),
        ("leftdiag16", "mult", fc.LeftMult(posdiag(16))),
        ("leftnonnormal2", "mult", fc.LeftMult(nonnormal)),
        ("rightdiag3", "mult", fc.RightMult(posdiag(3))),
        ("amplified3", "mult", fc.AmplifiedOp(fc.LeftMult(posdiag(3)), 3)),
        ("schurpositive5", "structured", fc.SchurMult(rng.uniform(0.3, 3.0, (5, 5)))),
        ("schurdistance6", "structured",
         schur.schur_generator(schur.collinear_symbol(6, rng.uniform(0.5, 2.0)))),
        ("adpair4", "structured", ad),
        ("condexp4", "dense", martingale.CondExpOp(martingale.MartingaleTower(2), 1)),
        ("dense4", "dense", _sylvester_dense(rng, 4)),
        ("dense6", "dense", _sylvester_dense(rng, 6)),
        ("dense8", "dense", _sylvester_dense(rng, 8)),
    ]


def _oracle_case(op, kind, f, ctx: Context):
    path = "contour_calculus" if f.klass == "hinf0" else "extended_calculus"
    with ctx.span(f"funcalc.{path}.{kind}"):
        approx = getattr(fc, path)(op, f)
    with ctx.span("funcalc.eigen_calculus"):
        oracle = fc.eigen_calculus(op, f)
    a, o = approx.to_dense(), oracle.to_dense()
    rel = float(np.max(np.abs(a - o))) / max(float(np.max(np.abs(o))), 1e-300)
    ctx.record_max("funcalc.oracle_rel_err_max", rel)
    check(rel <= 1e-6, f"contour vs eigen oracle rel err {rel:.3e} > 1e-6")
    return a


def _sector_case(op, p, ctx: Context):
    with ctx.span(f"funcalc.sector_type.p{p}"):
        prof = fc.sector_type(op, p=float(p), seed=SEARCH_SEED)
    check(abs(prof.omega_hat) <= 1e-12, f"omega_hat {prof.omega_hat} != 0")
    for theta, k in prof.constants:
        # positive spectrum: sup over the ray of max |z / (z - lam)|
        ray_sup = 1.0 / math.sin(theta) if theta < math.pi / 2 else 1.0
        check(k <= ray_sup * (1 + 1e-9), f"K({theta:.3f}) = {k} above ray sup {ray_sup}")
        check(k >= 0.99, f"K({theta:.3f}) = {k} below the large-|z| limit 1")
    return [k for _, k in prof.constants]


def _group_average_case(a2, a3, ctx: Context):
    with ctx.span("funcalc.identities"):
        mat = fc.group_average_identity(a2, n_nodes=64)
        der = fc.group_average_identity(a3, a3, n_nodes=64)
    check(mat <= 1e-8 and der <= 1e-8, f"group-average residuals {mat:.2e}/{der:.2e} > 1e-8")
    return [mat, der]


def _subordination_case(c_mat, c_op, t, ctx: Context):
    with ctx.span("funcalc.identities"):
        r1, m1 = fc.subordination_identity(c_mat, t)
        r2, m2 = fc.subordination_identity(c_op, 0.7)
    check(r1 <= 1e-5 and r2 <= 1e-5, f"subordination residuals {r1:.2e}/{r2:.2e} > 1e-5")
    check(abs(m1 - 1) <= 1e-8 and abs(m2 - 1) <= 1e-8, "subordination mass misses 1")
    return [r1, r2]


def _schur_case(op, ctx: Context):
    with ctx.span("models.schur"):
        val = schur.amplified_s2_norm(op, 4)
    # a Schur multiplier's S^2 norm is its largest |entry|, here e^0 = 1
    exact = float(np.max(np.abs(op.m)))
    check(val <= 1 + 1e-9 and abs(val - exact) <= 1e-9, f"amplified S2 norm {val} != {exact}")
    return [val]


def _clifford_case(rep, t, ctx: Context):
    with ctx.span("models.clifford"):
        choi = fc.choi_matrix(clifford.clifford_semigroup(rep, t))
        low = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0])
    check(low >= -1e-10, f"Choi min eigenvalue {low:.3e} < -1e-10")
    return [low]


def _fock_case(d, q, ctx: Context):
    with ctx.span("models.fock"):
        lows = [float(np.linalg.eigvalsh(fock.q_gram(level, d, q))[0]) for level in range(6)]
    check(min(lows) >= -1e-10, f"q-Gram min eigenvalue {min(lows):.3e} < -1e-10")
    return lows


def _martingale_case(tower, x, ctx: Context):
    with ctx.span("models.martingale"):
        ek = [martingale.cond_exp(tower, k, x) for k in range(tower.n_factors + 1)]
        nested = [[martingale.cond_exp(tower, j, ek[k]) for k in range(len(ek))]
                  for j in range(len(ek))]
    err = max(float(np.max(np.abs(nested[j][k] - ek[min(j, k)])))
              for j in range(len(ek)) for k in range(len(ek)))
    check(err <= 1e-12, f"E_j E_k != E_min(j,k): defect {err:.2e}")
    return ek


def _cli_case(argv, ctx: Context):
    out, err = io.StringIO(), io.StringIO()
    with ctx.span("cli.main"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    check(code == 0, f"exit {code}: {err.getvalue().strip()}")
    rows = list(csv.DictReader(line for line in out.getvalue().splitlines()
                               if not line.startswith("#")))
    check(rows and all(r["ok"] == "True" for r in rows), "a row is not ok")
    return [float(r.get("value") or r.get("residual") or r.get("max_rel_err")) for r in rows]


def _calculus(seed: int) -> list[Case]:
    rng = _rng(seed, 1)
    fns = {fid: fc.library(fid) for fid in CALCULUS_FNS}
    cases = [
        Case(f"calculus/{name}/{fid}", 1e-6, partial(_oracle_case, op, kind, f))
        for name, kind, op in _calculus_operators(rng)
        for fid, f in fns.items()
    ]
    sector_op = fc.LeftMult(np.diag([1.0, 2.0]))
    cases += [Case(f"sector/leftdiag1,2/p{p}", 1e-6, partial(_sector_case, sector_op, p))
              for p in (2, 4)]

    rng = _rng(seed, 2)
    a2 = np.diag(rng.uniform(0.5, 2.5, 2))
    a3 = np.diag(np.concatenate([[0.0], rng.uniform(0.5, 2.5, 2)]))
    c_mat = np.diag(rng.uniform(0.3, 4.0, 3))
    lam = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 3.0, 2))])
    ad = fc.AdPair(np.diag(lam), np.diag(lam))
    c_op = fc.SandwichSchur(ad.u, ad.v, ad.w**2)
    cases += [
        Case("identities/group-average", 1e-8, partial(_group_average_case, a2, a3)),
        Case("identities/subordination", 1e-5,
             partial(_subordination_case, c_mat, c_op, rng.uniform(0.5, 1.0))),
    ]

    rng = _rng(seed, 3)
    pts = rng.uniform(0.0, 4.0, (8, 2))
    schur_op = schur.schur_semigroup(schur.SchurSymbol(pts, pts.copy()), 0.7)
    tower = martingale.MartingaleTower(3)
    cases += [
        Case("models/schur-amplified-s2", 1e-9, partial(_schur_case, schur_op)),
        Case("models/clifford-choi", 1e-10,
             partial(_clifford_case, clifford.spin_generators(4), rng.uniform(0.2, 1.0))),
        Case("models/fock-gram/d2", 1e-10, partial(_fock_case, 2, rng.uniform(-0.9, 0.9))),
        Case("models/fock-gram/d3", 1e-10, partial(_fock_case, 3, rng.uniform(-0.9, 0.9))),
        Case("models/martingale-tower", 1e-12,
             partial(_martingale_case, tower, _cmat(rng, tower.dim, tower.dim))),
    ]

    rng = _rng(seed, 4)
    diag = ",".join(f"{v:.3f}" for v in np.sort(rng.uniform(0.5, 3.0, 2)))
    argvs = [
        ["schatten-selftest", "--seed", str(seed)],
        ["calculus-check", "--fn", "g,zexp,zis:0.5", "--A", f"leftdiag:{diag}"],
        ["identities", "group-average", "--diag", diag],
        ["identities", "subordination", "--diag", diag, "--t", f"{rng.uniform(0.5, 1.0):.3f}"],
    ]
    cases += [Case(f"cli/{argv[0]}/{i}", 1e-6, partial(_cli_case, argv))
              for i, argv in enumerate(argvs)]
    return cases


# ---------------------------------------------------------------------------
# squarefn
# ---------------------------------------------------------------------------

SQ_DIAG = (0.5, 1.0, 2.5, 4.0)
SQ_PS = (1.5, 1.5, 1.0)


def _stack_maps(n, d1, d2):
    """Column stack (n d1 x d2) and row stack (d1 x n d2) of a family, with
    their adjoints: the two maps whose split infimum is the sum norm.  The
    benchmark keeps its own copy so that it passes the solver maps it can
    count, independent of nclp's private helpers."""
    def col(v):
        return v.reshape(n * d1, d2)

    def col_adj(m):
        return m.reshape(n, d1, d2)

    def row(v):
        return np.transpose(v, (1, 0, 2)).reshape(d1, n * d2)

    def row_adj(m):
        return np.transpose(m.reshape(d1, n, d2), (1, 0, 2))

    return col, col_adj, row, row_adj


def _split_infimum(ctx: Context, fam, p, cfg):
    """inf col(u) + row(fam - u) by the shared solver, with its forward maps
    counted, checked against min(col, row) of fam."""
    col, col_adj, row, row_adj = _stack_maps(*fam.shape)
    col = ctx.counted("optim.map_evals", col)
    row = ctx.counted("optim.map_evals", row)
    with ctx.span("optim.minimize_split_schatten"):
        res = optim.minimize_split_schatten(col, col_adj, row, row_adj, fam, p, cfg)
    if res.status == "budget-exhausted":
        ctx.count("optim.budget_exhausted")
    ref = min(hvnorms.col_norm(fam, p), hvnorms.row_norm(fam, p))
    ctx.solver(res.value, ref)
    check(res.value <= ref * (1 + 1e-12), f"infimum {res.value} above min(col, row) {ref}")
    return res.value


def _gap_case(n, ctx: Context):
    with ctx.span("sqfn.row_col_gap"):
        rep = sqfn.row_col_gap(n, 4.0)  # raises beyond rel 1e-6 from the closed form
    check(abs(rep.fc_val - math.sqrt(n / 2)) <= 1e-10, f"column {rep.fc_val} != sqrt(n/2)")
    check(abs(rep.fr_val - rep.fr_closed_form) <= 1e-6 * rep.fr_closed_form, "row vs closed form")
    return [rep.fc_val, rep.fr_val]


def _grid_case(op, x, f, g1, g2, p, ctx: Context):
    with ctx.span("sqfn.sq_col"):
        a = sqfn.sq_col(op, x, f, g1, p)
        b = sqfn.sq_col(op, x, f, g2, p)
    check(abs(a - b) <= 1e-4 * a, f"grid drift {abs(a - b) / a:.2e} >= 1e-4")
    return [a, b]


def _core_case(x, y, ctx: Context):
    ps = (1.0, 1.5, 4.0, math.inf)
    conj = (math.inf, 3.0, 4.0 / 3.0, 1.0)
    with ctx.span("core.schatten_norm"):
        nx = [schatten_norm(x, p) for p in ps]
        ny = [schatten_norm(y, q) for q in conj]
    pair = abs(np.trace(x @ y))
    for p, a, b in zip(ps, nx, ny):
        check(pair <= a * b * (1 + 1e-12), f"Hoelder fails at p={p}")
    check(all(u >= v * (1 - 1e-12) for u, v in zip(nx, nx[1:])), "norms not monotone in p")
    gram = x.conj().T @ x
    with ctx.span("core.psd_sqrt"):
        root = psd_sqrt(gram)
    scale = float(np.linalg.norm(gram, 2))
    check(float(np.linalg.norm(root @ root - gram, 2)) <= 1e-10 * scale, "psd_sqrt^2 != x*x")
    return nx + ny + [float(np.linalg.norm(root))]


def _row_oracle(lam, x, p):
    """Closed-form row square function of left multiplication by diag(lam)
    with F = sqrt(z) e^{-z}: S = K o (x x*), K_ij = sqrt(l_i l_j)/(l_i + l_j)."""
    kern = np.sqrt(np.outer(lam, lam)) / np.add.outer(lam, lam)
    ev = np.clip(np.linalg.eigvalsh(kern * (x @ x.conj().T)), 0.0, None)
    return float(np.sum(ev ** (p / 2)) ** (1 / p))


def _sq_col_case(op, x, f, grid, p, ctx: Context):
    with ctx.span("sqfn.sq_col"):
        val = sqfn.sq_col(op, x, f, grid, p)
    ref = math.sqrt(0.5) * schatten_norm(x, p)  # c_F = 1/sqrt 2 for sqrt(z) e^{-z}
    check(abs(val - ref) <= 1e-8 * ref, f"column {val} vs c_F ||x||_p {ref}")
    return [val]


def _sq_row_case(op, x, f, grid, p, ctx: Context):
    with ctx.span("sqfn.sq_row"):
        val = sqfn.sq_row(op, x, f, grid, p)
    ref = _row_oracle(np.array(SQ_DIAG), x, p)
    check(abs(val - ref) <= 1e-8 * ref, f"row {val} vs closed form {ref}")
    return [val]


def _bracket_case(op, x, f, grid, p, cfg, ctx: Context):
    with ctx.span("sqfn.bracket_norm"):
        res = sqfn.bracket_norm(op, x, f, grid, p, cfg)
    if res.status == "budget-exhausted":
        ctx.count("optim.budget_exhausted")
    ref = min(sqfn.sq_col(op, x, f, grid, p), sqfn.sq_row(op, x, f, grid, p))
    ctx.solver(res.value, ref)
    check(res.value <= ref * (1 + 1e-12), f"bracket {res.value} above min(col, row) {ref}")
    return [res.value]


def _symmetric_case(op, x, f, grid, p, cfg, ctx: Context):
    """The symmetric square function at p < 2, as sq_rad computes it."""
    with ctx.span("sqfn.node_apply"):
        nodes = sqfn.node_apply(op, x, f, grid)
    fam = np.sqrt(grid.w)[:, None, None] * nodes
    return [_split_infimum(ctx, fam, p, cfg)]


def _cesaro_case(fam, golden, p, cfg, ctx: Context):
    value = _split_infimum(ctx, fam, p, cfg)
    # every increment is a multiple of E x - x, so the infimum is exactly
    # ||c||_2 ||E x - x||_p, and a feasible value can never go below it
    check(value >= golden * (1 - 1e-9), f"infimum {value} below the exact value {golden}")
    return [value]


def _cesaro_family(tower, k, x, p, m_count=24):
    """sqrt(m) (S_m - S_{m-1}) for the Cesaro means of T = E_k, and the
    exact infimum of their split norm at p."""
    op = martingale.CondExpOp(tower, k)
    fam, power, total, prev = [], x, x.copy(), x
    for m in range(1, m_count + 1):
        power = op.apply(power)
        total = total + power
        mean = total / (m + 1)
        fam.append(math.sqrt(m) * (mean - prev))
        prev = mean
    coeff = math.sqrt(sum(1.0 / (m * (m + 1) ** 2) for m in range(1, m_count + 1)))
    return np.stack(fam), coeff * schatten_norm(op.apply(x) - x, p)


def _squarefn(seed: int) -> list[Case]:
    cases = [Case(f"gap/n{n}", 1e-6, partial(_gap_case, n)) for n in (4, 8, 16)]
    op = fc.LeftMult(np.diag(SQ_DIAG))
    f = fc.library("sqrtzexp")
    grid = sqfn.LogGrid.for_operator(op)
    fine = grid.refine(2, widen=10.0)
    rng = _rng(seed, 1)
    cases += [Case(f"grid/p{p}", 1e-8, partial(_grid_case, op, _cmat(rng, 4, 4), f, grid, fine, p))
              for p in (1.5, 2.0, 4.0)]
    rng = _rng(seed, 2)
    cases += [Case(f"core/d{d}", 1e-10, partial(_core_case, _cmat(rng, d, d), _cmat(rng, d, d)))
              for d in (4, 16, 64)]

    cfg = optim.ConvexCfg(restarts=4, iters=200, seed=seed)
    rng = _rng(seed, 3)
    for i, p in enumerate(SQ_PS):
        x = _cmat(rng, 4, 4)
        cases += [
            Case(f"sqfn/x{i}/col", 1e-8, partial(_sq_col_case, op, x, f, grid, p)),
            Case(f"sqfn/x{i}/row", 1e-8, partial(_sq_row_case, op, x, f, grid, p)),
            Case(f"sqfn/x{i}/bracket", 1e-9, partial(_bracket_case, op, x, f, grid, p, cfg)),
            Case(f"sqfn/x{i}/symmetric", 1e-9, partial(_symmetric_case, op, x, f, grid, p, cfg)),
        ]
    rng = _rng(seed, 4)
    tower = martingale.MartingaleTower(3)
    for k in (1, 2):
        fam, golden = _cesaro_family(tower, k, _cmat(rng, tower.dim, tower.dim), 1.5)
        cases.append(Case(f"cesaro/k{k}", 1e-9, partial(_cesaro_case, fam, golden, 1.5, cfg)))
    return cases


# ---------------------------------------------------------------------------
# signs
# ---------------------------------------------------------------------------

FAMILY_SHAPES = ((3, 2), (4, 3), (5, 4), (6, 2), (7, 3), (8, 4))  # (n, d)
FG_WORDS = ((), (1,), (2,), (1, 2), (-1, 2), (1, 1), (2, -1))
FG_POOLS = (
    ((1,), (-1,), (2,), (-2,)),
    ((1, 1), (1, 2), (2, 1), (-1, 2), (2, 2)),
    ((1, 2, 1, 2), (1, 1, 2, 2), (2, -1, 2, 1), (1, 2, -1, -2)),
)


def _rad_average(ctx: Context, fam, p):
    with ctx.span("hvnorms.rad_average"):
        val = hvnorms.rad_average(fam, p)
    ctx.count("hvnorms.rad_average.patterns", 2 ** (len(fam) - 1))
    return val


def _khintchine4_case(fam, ctx: Context):
    ra = _rad_average(ctx, fam, 4.0)
    with ctx.span("hvnorms.intersection_norm"):
        inter = hvnorms.intersection_norm(fam, 4.0)
    check(ra >= inter / math.sqrt(2) - 1e-9 * inter, f"rad {ra} below inter/sqrt2 {inter}")
    check(ra <= sum(schatten_norm(x, 4.0) for x in fam) * (1 + 1e-12), "rad above triangle bound")
    return [ra, inter]


def _khintchine1_case(fam, cfg, ctx: Context):
    ra = _rad_average(ctx, fam, 1.0)
    with ctx.span("hvnorms.sum_norm_solve"):
        res = hvnorms.sum_norm_solve(fam, 1.0, cfg)
    if res.status == "budget-exhausted":
        ctx.count("hvnorms.sum_norm_solve.budget_exhausted")
    ref = min(hvnorms.col_norm(fam, 1.0), hvnorms.row_norm(fam, 1.0))
    ctx.solver(res.value, ref)
    check(res.value <= ref * (1 + 1e-12), f"sum norm {res.value} above min(col, row) {ref}")
    check(ra <= res.value + 1e-6 * max(res.value, 1.0), f"rad {ra} above sum norm {res.value}")
    return [ra, res.value]


def _ray_family_case(op, theta, n_points, ctx: Context):
    with ctx.span("rbound.ray_resolvent_family"):
        fam = rbound.ray_resolvent_family(op, theta, n_points)
    check(len(fam) == n_points, f"{len(fam)} members, expected {n_points}")
    lam = np.diag(op.a)
    for member in fam:
        s = np.diag(member.a)  # z / (z - lam_i) on the diagonal
        z = s * lam / (s - 1.0)  # the z each entry implies; all must agree
        check(float(np.max(np.abs(z - z[0]))) <= 1e-9 * abs(z[0]), "member is not z R(z, A)")
        check(abs(abs(np.angle(z[0])) - theta) <= 1e-9, "member off the rays")
    return np.array([np.diag(m.a) for m in fam])


def _rbound_case(notion, fam, p, budget, seed, ctx: Context):
    with ctx.span(f"rbound.{notion}_bound_estimate"):
        est = getattr(rbound, f"{notion}_bound_estimate")(fam, p, budget, seed)
    with ctx.span("rbound.re_evaluate"):
        again = rbound.re_evaluate(est, fam)
    check(abs(again - est.value) <= 1e-9 * est.value, f"witness gives {again}, claimed {est.value}")
    if notion == "col":
        # left multiplications are column bounded by their largest norm
        top = max(float(np.linalg.norm(m.a, 2)) for m in fam)
        check(est.value <= top * (1 + 1e-9), f"col lower bound {est.value} above the constant {top}")
    ctx.bound(est.value)
    return [est.value]


def _fg_oracle_norm(coeffs, p):
    """||x||_p for even p from an independent word convolution:
    tau((x* x)^k) = sum_g y^a(g) y^b(g^-1) with a + b = k, y = x* x."""
    def mul(u, v):
        out = {}
        for w1, c1 in u.items():
            for w2, c2 in v.items():
                w = list(w1)
                for letter in w2:
                    if w and w[-1] == -letter:
                        w.pop()
                    else:
                        w.append(letter)
                w = tuple(w)
                out[w] = out.get(w, 0) + c1 * c2
        return out

    star = {tuple(-a for a in reversed(w)): c.conjugate() for w, c in coeffs.items()}
    y = mul(star, coeffs)
    y2 = mul(y, y) if p > 4 else None
    a, b = {4: (y, y), 6: (y2, y), 8: (y2, y2)}[p]
    tau = sum(c * b.get(tuple(-t for t in reversed(w)), 0) for w, c in a.items())
    return max(tau.real, 0.0) ** (1.0 / p)


def _norm_even_case(poly, p, ctx: Context):
    with ctx.span(f"models.freegroup.norm_even.p{p}"):
        val = poly.norm_even(p)
    ref = _fg_oracle_norm(poly.coeffs, p)
    check(abs(val - ref) <= 1e-10 * ref, f"||x||_{p} = {val}, oracle {ref}")
    return [val]


def _golden_case(ctx: Context):
    x = freegroup.GroupPoly.lam("a") + freegroup.GroupPoly.lam("A")
    with ctx.span("models.freegroup.norm_even.p4"):
        val = x.norm_even(4)
    check(abs(val - 6.0**0.25) <= 1e-12, f"||lam(a) + lam(a^-1)||_4 = {val} != 6^(1/4)")
    return [val]


def _dyadic_case(shells, p, ctx: Context):
    with ctx.span(f"models.freegroup.dyadic.p{p}"):
        const = freegroup.dyadic_unconditionality(shells, p)
    check(math.isfinite(const) and const >= 1 - 1e-12, f"constant {const} not finite >= 1")
    return [const]


def _signs(seed: int) -> list[Case]:
    rng = _rng(seed, 1)
    cfg = optim.ConvexCfg(restarts=8, iters=200, seed=seed)
    cases = []
    for i, (n, d) in enumerate(FAMILY_SHAPES):
        fam = _cmat(rng, n, d, d)
        cases += [
            Case(f"khintchine/fam{i}/p4", 1e-9, partial(_khintchine4_case, fam)),
            Case(f"khintchine/fam{i}/p1", 1e-9, partial(_khintchine1_case, fam, cfg)),
        ]
    rng = _rng(seed, 2)
    cases += [Case(f"rad-exact/n{n}", 1e-9, partial(_khintchine4_case, _cmat(rng, n, 3, 3)))
              for n in (12, 14, 16)]

    op = fc.LeftMult(np.diag([0.5, 1.0, 2.0]))
    ray = rbound.ray_resolvent_family(op, 0.9, 12)
    budget = rbound.SearchCfg(restarts=8, iters=25)
    cases.append(Case("ray-family/theta0.9", 1e-9, partial(_ray_family_case, op, 0.9, 12)))
    cases += [Case(f"rbound/{notion}", 1e-9,
                   partial(_rbound_case, notion, ray, 4.0, budget, SEARCH_SEED))
              for notion in ("col", "row", "rad")]

    rng = _rng(seed, 3)
    poly = freegroup.GroupPoly({w: complex(*rng.standard_normal(2)) for w in FG_WORDS})
    cases += [Case(f"freegroup/norm-even/p{p}", 1e-10, partial(_norm_even_case, poly, p))
              for p in (4, 6, 8)]
    cases.append(Case("freegroup/golden-6^(1/4)", 1e-12, _golden_case))
    shells = [freegroup.GroupPoly({w: complex(*rng.standard_normal(2)) for w in pool})
              for pool in FG_POOLS]
    cases += [Case(f"freegroup/dyadic/p{p}", 1e-10, partial(_dyadic_case, shells, p))
              for p in (4, 6)]
    return cases
