import ast
import dataclasses
import importlib
import importlib.util
import inspect
import math
import pkgutil
import warnings
from pathlib import Path

import numpy as np
import pytest

import nclp
from nclp import core, funcalc as fc, hvnorms, optim, rbound, sqfn
from nclp.models import clifford, fock, freegroup, martingale, schur  # noqa: F401 (their kinds)

from conftest import random_matrix, random_psd, unit


def _modulus(x):
    """|x| = (x*x)^{1/2} through the PSD root kernel."""
    return core.psd_sqrt(core.adjoint(x) @ x)


class TestSchattenNorm:
    def test_identity_p2(self):
        assert core.schatten_norm(np.eye(3), 2) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_rank_one_flat_vector_any_p(self):
        # x = (e (x) e)/sqrt(n) with e the all-ones vector has one singular
        # value sqrt(n), so every Schatten norm equals sqrt(n).
        n = 7
        e = np.ones((n, 1))
        x = (e @ e.T) / math.sqrt(n)
        for p in (1, 1.5, 2, 4, math.inf):
            assert core.schatten_norm(x, p) == pytest.approx(math.sqrt(n), rel=1e-12)

    def test_diag_p1(self):
        assert core.schatten_norm(np.diag([3.0, 4.0]), 1) == pytest.approx(7.0, abs=1e-12)

    def test_adjoint_and_modulus_invariance(self, rng):
        x = random_matrix(rng, 4)
        for p in (1, 1.7, 2, 3, math.inf):
            n = core.schatten_norm(x, p)
            assert core.schatten_norm(core.adjoint(x), p) == pytest.approx(n, rel=1e-10)
            assert core.schatten_norm(_modulus(x), p) == pytest.approx(n, rel=1e-9)

    def test_hoelder(self, rng):
        # ||xy||_r <= ||x||_p ||y||_q whenever 1/p + 1/q = 1/r
        for p, q in ((2, 2), (4, 4 / 3), (3, 6)):
            r = 1.0 / (1.0 / p + 1.0 / q)
            for _ in range(20):
                x, y = random_matrix(rng, 3), random_matrix(rng, 3)
                lhs = core.schatten_norm(x @ y, r)
                rhs = core.schatten_norm(x, p) * core.schatten_norm(y, q)
                assert lhs <= rhs + 1e-9

    def test_infty_vs_p_sandwich(self, rng):
        x = random_matrix(rng, 5)
        rank = np.linalg.matrix_rank(x)
        for p in (1, 2, 3.5):
            np_ = core.schatten_norm(x, p)
            ninf = core.schatten_norm(x, math.inf)
            assert ninf <= np_ + 1e-12
            assert np_ <= rank ** (1.0 / p) * ninf + 1e-9

    def test_duality_sup_formula(self, rng):
        # ||x||_p = sup { |tr(xy)| : ||y||_p' <= 1 }, attained at the polar dual
        x = random_matrix(rng, 4)
        for p in (1.5, 2, 3):
            pp = core.conjugate_exponent(p)
            u, s, vh = np.linalg.svd(x)
            y = (vh.conj().T * (s ** (p - 1))) @ u.conj().T
            y = y / core.schatten_norm(y, pp)
            val = abs(np.trace(x @ y))
            assert val == pytest.approx(core.schatten_norm(x, p), rel=1e-8)

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            core.schatten_norm(np.eye(2), 0.5)


class TestSchattenRange:
    """s**p over- or underflows for huge exponents (the dual exponent of p
    just above 1) and for extreme singular values; those rows are rescaled
    by their top singular value, every other row keeps the plain sum."""

    def test_huge_exponent_does_not_overflow(self):
        # plain sum(s**p)**(1/p) overflows to inf (with a RuntimeWarning)
        assert core.schatten_from_sv(np.array([3.0, 1.0]), 4.5e15) == 3.0

    def test_extreme_singular_values(self):
        for scale in (1e-200, 1e200):
            got = core.schatten_from_sv(np.array([1.0, 0.5]) * scale, 4.0)
            assert got == pytest.approx(scale * (1 + 0.5**4) ** 0.25, rel=1e-15)

    def test_only_failing_rows_are_rescaled(self, rng):
        s = np.sort(rng.random((6, 3)), axis=-1)[:, ::-1] * 4.0
        plain = np.sum(s**3.5, axis=-1) ** (1 / 3.5)
        mixed = np.concatenate([s, [[1e-300, 1e-301, 0.0], [0.0, 0.0, 0.0]]])
        got = core.schatten_from_sv(mixed, 3.5)
        assert np.array_equal(got[:6], plain)
        assert got[6] == pytest.approx(1e-300 * (1 + 0.1**3.5) ** (1 / 3.5), rel=1e-14)
        assert got[7] == 0.0

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0, 7.25])
    def test_in_range_values_are_the_plain_sum(self, rng, p):
        s = np.linalg.svd(rng.standard_normal((5, 4, 4)), compute_uv=False)
        batched = np.sum(s**p, axis=-1) ** (1 / p)
        assert np.array_equal(core.schatten_from_sv(s, p), batched)
        for row, want in zip(s, batched):  # one family alone: the bits of the batch
            assert core.schatten_from_sv(row, p) == want

    @pytest.mark.parametrize("p", [1.0, 3.0, 4.5e15])
    def test_range_check_only_picks_the_faster_path(self, rng, p):
        # the plain sum runs when no row can over- or underflow; the guarded
        # path alone returns the same bits on every row, in range or not
        s = np.linalg.svd(rng.standard_normal((5, 4, 4)), compute_uv=False)
        mixed = np.concatenate([s, [[1e-300, 1e-301, 0, 0], [0, 0, 0, 0]]])
        for batch in (s, s[0], mixed):
            assert np.array_equal(core._schatten_guarded(batch, p),
                                  core.schatten_from_sv(batch, p))


def _moment_batch(rng, shape):
    """A batch of matrices of one shape with a rank-deficient slice, a zero
    slice and slices scaled by 1e-200 and 1e200."""
    y = np.stack([random_matrix(rng, *shape) for _ in range(6)])
    y[1, :, 0] = 0.0
    y[2] = 0.0
    y[3] *= 1e-200
    y[4] *= 1e200
    y[5, 0] *= 1e-200  # one tiny row next to ordinary ones
    return y


_SHAPES = pytest.mark.parametrize("shape", [(3, 3), (5, 2), (2, 5), (1, 4)],
                                  ids=["square", "tall", "wide", "row"])


class TestMomentKernel:
    """p = 2, 4, 6, 8 take ||y||_p^p = tr((y*y)^k) and no SVD; every other
    p keeps the singular-value path bit for bit."""

    @_SHAPES
    @pytest.mark.parametrize("p", [2.0, 4.0, 6.0, 8.0])
    def test_moments_match_the_singular_values(self, rng, shape, p):
        y = _moment_batch(rng, shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = core.schatten_norms(y, p)
            norms, xi = core.norm_and_polar(y, p)
            ref = core.schatten_from_sv(np.linalg.svd(y, compute_uv=False), p)
        assert np.array_equal(norms, got)
        assert got[2] == 0.0 and not np.any(xi[2])
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)
        pp = core.conjugate_exponent(p)
        for k in (0, 1, 3, 4, 5):
            pairing = np.vdot(xi[k], y[k]).real  # Re tr(xi* y)
            assert pairing == pytest.approx(got[k], rel=1e-13)
            assert core.schatten_norm(xi[k], pp) == pytest.approx(1.0, rel=1e-13)
        assert np.array_equal(core.polar_factor(y, p), xi)
        for k in range(len(y)):  # a matrix gets the same bits alone
            alone, alone_xi = core.norm_and_polar(y[k], p)
            assert alone == got[k] == core.schatten_norm(y[k], p)
            assert np.array_equal(alone_xi, xi[k])

    @_SHAPES
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.5e15, math.inf])
    def test_other_exponents_keep_the_svd_bits(self, rng, shape, p):
        y = _moment_batch(rng, shape)
        s = np.linalg.svd(y, compute_uv=False)
        assert np.array_equal(core.schatten_norms(y, p), core.schatten_from_sv(s, p))
        s_full, xi = core._sv_and_polar(y, p)
        norms, xi_too = core.norm_and_polar(y, p)
        assert np.array_equal(norms, core.schatten_from_sv(s_full, p))
        assert np.array_equal(xi_too, xi)
        assert np.array_equal(core.polar_factor(y, p), xi)
        assert core.schatten_norm(y[0], p) == core.schatten_from_sv(s[0], p)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.5e15])
    def test_svd_side_gives_a_matrix_the_same_bits_alone(self, rng, p):
        # the root of a single matrix's power sum is taken on an array: a
        # numpy scalar's libm power can differ in the last bit
        y = np.stack([random_matrix(rng, 3) for _ in range(50)])
        assert core.schatten_norms(y, p).tolist() == [core.schatten_norm(m, p) for m in y]

    def test_frobenius_is_the_entry_sum(self, rng):
        y = random_matrix(rng, 3, 4)
        assert core.schatten_norm(y, 2) == pytest.approx(np.sqrt(np.sum(np.abs(y) ** 2)),
                                                         rel=1e-15)
        assert np.allclose(core.polar_factor(y, 2), y / np.linalg.norm(y), rtol=0,
                           atol=1e-15)


class TestModulusTracePsd:
    def test_modulus_diag(self):
        x = np.diag([-2.0, 1j])
        assert np.allclose(_modulus(x), np.diag([2.0, 1.0]), atol=1e-12)

    def test_modulus_matrix_unit(self):
        x = unit(2, 1, 0)
        assert np.allclose(_modulus(x), unit(2, 0, 0), atol=1e-12)

    def test_modulus_idempotent_on_psd(self, rng):
        a = random_psd(rng, 4)
        assert np.allclose(_modulus(a), a, atol=1e-9 * np.linalg.norm(a, 2))

    def test_psd_sqrt_diag(self):
        assert np.allclose(core.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
        assert np.allclose(core.psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_psd_sqrt_reconstruction(self, rng):
        s = random_psd(rng, 5)
        y = core.psd_sqrt(s)
        assert np.linalg.norm(y @ y - s, 2) <= 1e-10 * max(1.0, np.linalg.norm(s, 2))

    def test_psd_sqrt_rejects_non_hermitian(self, rng):
        with pytest.raises(ValueError):
            core.psd_sqrt(random_matrix(rng, 3))

    def test_psd_sqrt_rejects_negative(self):
        with pytest.raises(ValueError):
            core.psd_sqrt(np.diag([1.0, -1e-3]))


class TestExponent:
    def test_conjugate(self):
        assert core.conjugate_exponent(1) == math.inf
        assert core.conjugate_exponent(math.inf) == 1.0
        assert core.conjugate_exponent(2) == pytest.approx(2.0)
        for p in (1.2, 1.5, 3, 7):
            pp = core.conjugate_exponent(p)
            assert 1.0 / p + 1.0 / pp == pytest.approx(1.0, abs=1e-14)


class TestBound:
    def test_within_at_its_edges(self):
        # the solver's rule upper - lower <= tol * upper, so upper 0 is closed
        assert core.Bound(0.0, 0.0).within(1e-6) and core.Bound(0.0, 0.0).gap == 0.0
        assert core.Bound(1.0 - 1e-7, 1.0).within(1e-6)
        assert not core.Bound(1.0 - 1e-5, 1.0).within(1e-6)
        assert core.Bound(2.0, 2.0).within(0.0)
        assert not core.Bound(np.nextafter(2.0, 0.0), 2.0).within(0.0)
        # an open upper end is never within, whatever the tolerance
        for lower in (-math.inf, 0.0, 1.0, math.inf):
            assert not core.Bound(lower).within(1e6)
        assert core.Bound(1.0).gap == math.inf
        # nor is a lower end of -inf below a finite upper one
        assert not core.Bound(-math.inf, 0.0).within(1e-6)
        assert not core.Bound(-math.inf, 1.0).within(1e6)

    def test_results_derive_their_verdicts(self):
        x = np.zeros((1, 2, 2))
        zero = optim.SolveResult(0.0, 0.0, minimizer=x, iters=0, tol=1e-6)
        assert zero.status == "converged" and zero.value == 0.0
        wide = optim.SolveResult(0.5, 1.0, minimizer=x, iters=3, tol=1e-6)
        assert wide.status == "budget-exhausted" and wide.gap == 0.5
        est = rbound.BoundEstimate(1.5, notion="col", p=4.0, selection=(0,), witness=x,
                                   restarts=2)
        assert est.value == 1.5 and est.upper == math.inf and not est.within(1.0)

    def test_ends_are_ordered_by_construction(self):
        # every Bound and every subclass refuses crossed ends, and a NaN end
        x = np.zeros((1, 2, 2))
        crossed = [
            lambda: core.Bound(2.0, 1.0),
            lambda: core.Bound(math.nan),
            lambda: core.Bound(0.0, math.nan),
            lambda: optim.SolveResult(2.0, 1.0, minimizer=x, iters=0, tol=1e-6),
            lambda: rbound.BoundEstimate(2.0, 1.0, notion="col", p=4.0, selection=(0,),
                                         witness=x, restarts=0),
        ]
        for make in crossed:
            with pytest.raises(ValueError, match="lower <= upper"):
                make()

    def test_results_keep_one_interval(self):
        # the certified ends and every verdict on them live in core.Bound: a
        # result type that stores its own copy can disagree with it
        assert issubclass(optim.SolveResult, core.Bound)
        assert issubclass(rbound.BoundEstimate, core.Bound)
        # nclp.__main__ runs the CLI on import, and a later `python -m nclp`
        # warns when it is already in sys.modules
        results = [cls for info in pkgutil.walk_packages(nclp.__path__, "nclp.")
                   if info.name != "nclp.__main__"
                   for cls in vars(importlib.import_module(info.name)).values()
                   if dataclasses.is_dataclass(cls) and cls.__module__ == info.name]
        assert {optim.SolveResult, rbound.BoundEstimate, fc.SectorProfile} <= set(results)

        def names(cls):
            return set(dir(cls)) | {f.name for f in dataclasses.fields(cls)}

        redeclared = [f"{cls.__qualname__}.{name}" for cls in results if cls is not core.Bound
                      for name in ("lower", "upper", "gap")
                      if name in vars(cls) or name in vars(cls).get("__annotations__", {})]
        stored = [f"{cls.__qualname__}.{f.name}" for cls in results
                  for f in dataclasses.fields(cls) if f.name in ("status", "exact")]
        gone = [f"{cls.__qualname__}.{name}" for cls in results
                for name in ("at_upper", "radnorm_lower", "solver_status") if name in names(cls)]
        assert redeclared == stored == gone == []


class TestNoUnreadOptions:
    def test_removed_parameters_and_names_stay_absent(self):
        # no caller in nclp set these: each doubled the configurations to test
        removed = [(sqfn.square_report, "with_bracket"), (hvnorms.tensor_extend, "tol")]
        removed += [(fn, "extra_starts") for fn in (
            rbound.col_bound_estimate, rbound.row_bound_estimate, rbound.rad_bound_estimate,
            rbound._estimate, rbound._search)]
        removed += [(sqfn.equivalence_experiment, "cfg"),
                    (martingale.cesaro_square_function, "cfg"), (fc.product_fn, "name"),
                    (rbound._estimate, "theta")]
        assert [(fn.__name__, name) for fn, name in removed
                if name in inspect.signature(fn).parameters] == []
        gone = [(fc, "schatten_opnorm_lower"), (fock, "FockOp"), (freegroup.GroupPoly, "support"),
                (fc.LeftMult(np.eye(2)), "__call__"), (fc, "_stacked_coefficients"),
                (sqfn.LogGrid, "mass"), (fock.FockBasis(2, 1, 0.0), "gram_blocks")]
        gone += [(kind, name) for kind in _kind_classes() for name in ("opnorm", "opnorm_witness")]
        # library surface that only tests reached
        gone += [(core, name) for name in ("trace_pair", "modulus", "save_matrix", "load_matrix",
                                           "save_family")]
        gone += [(hvnorms, "gram_col_norm"), (hvnorms, "rad_average_mc"), (sqfn, "grid_cf"),
                 (clifford, "normalized_trace"), (fock, "fock_trace"), (fock.FockBasis, "q_inner")]
        gone += [(fc.LpOperator, "spectral_scale")]  # its one caller reads the spectrum once
        assert [name for owner, name in gone if hasattr(owner, name)] == []
        # result fields that copied an argument back, and fields another one restates
        stored = [(rbound.BoundEstimate, "theta"), (rbound.BoundEstimate, "seed"),
                  (fc.SectorProfile, "p"),
                  (sqfn.EquivReport, "p"), (sqfn.EquivReport, "variant"),
                  (sqfn.EquivReport, "samples"), (sqfn.GapReport, "n"), (sqfn.GapReport, "p"),
                  (sqfn.SquareReport, "grid"), (martingale.CesaroReport, "m_count"),
                  (martingale.CesaroReport, "p"), (hvnorms.KhintchineReport, "p"),
                  (fc.HolFn, "klass"), (fc.HolFn, "decay"), (sqfn.LogGrid, "n")]
        assert [f"{cls.__name__}.{name}" for cls, name in stored
                if name in {f.name for f in dataclasses.fields(cls)}] == []
        # left multiplication takes the base class's eigenframe
        assert "frame" not in vars(fc.LeftMult)

    def test_one_norm_hook(self):
        # norm_bounds is written once per kind that knows its norm another
        # way than the base class, and a BoundEstimate's witness is its Bound's
        own = {kind.__name__ for kind in _kind_classes() if "norm_bounds" in vars(kind)}
        assert own == {"LpOperator", "LeftMult", "RightMult", "AmplifiedOp"}
        assert "witness" not in vars(rbound.BoundEstimate)["__annotations__"]


# Public src names that no src or bench code reads, each kept for a reason
UNCALLED_KEPT = {
    "load_family": "ROADMAP item 5: `verify` reloads rbound witness files with it",
    "col_dual_witness": "ROADMAP item 2: the certified dual end of the split-norm solver",
    "imaginary_power": "ROADMAP item 12: the H-infinity lower-bound search",
    "number_operator": "ROADMAP item 17: the Clifford model on its own algebra",
    "annihilation_formula": "ROADMAP item 16: the oracle of the q-Fock annihilation",
    "length_multiplier": "ROADMAP item 8: the oracle of the free-group square functions",
    "sq_rad": "the third of the paper's square functions, beside sq_col and sq_row",
    "row_bound_estimate": "the benchmark calls it through getattr",
    "rad_bound_estimate": "the benchmark calls it through getattr",
    "parse_known_args": "argparse calls it on every subcommand parser (cli._SubcommandParser)",
}


def _reads(node, inside=()):
    """Every name a Name, Attribute or ImportFrom under node reads, except
    a definition's reads of its own name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside = inside + (node.name,)
    if isinstance(node, ast.Name):
        names = {node.id}
    elif isinstance(node, ast.Attribute):
        names = {node.attr}
    elif isinstance(node, ast.ImportFrom):
        names = {alias.name for alias in node.names}
    else:
        names = set()
    out = names - set(inside)
    for child in ast.iter_child_nodes(node):
        out |= _reads(child, inside)
    return out


class TestLibrarySurface:
    def test_every_public_name_has_a_caller_or_a_reason(self):
        # a public function, class or method that only tests reach is
        # surface to keep working for nobody: give it a caller or delete it
        root = Path(__file__).resolve().parents[1]
        public, read = set(), set()
        for path in sorted((root / "src").rglob("*.py")):
            tree = ast.parse(path.read_text())
            read |= _reads(tree)
            for node in tree.body:
                members = node.body if isinstance(node, ast.ClassDef) else []
                public |= {n.name for n in [node, *members]
                           if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                           and not n.name.startswith("_")}
        for path in sorted((root / "bench").rglob("*.py")):
            read |= _reads(ast.parse(path.read_text()))
        uncalled = public - read
        assert sorted(uncalled - set(UNCALLED_KEPT)) == []  # no caller and no reason
        assert sorted(set(UNCALLED_KEPT) - uncalled) == []  # has a caller: take it off


def _kind_classes():
    """LpOperator and every kind derived from it in nclp."""
    kinds, todo = [], [fc.LpOperator]
    while todo:
        kinds.append(todo.pop())
        todo += kinds[-1].__subclasses__()
    return kinds


class TestCodeLines:
    def test_counts_lines_that_hold_code(self):
        # tools/code_lines.py: docstrings, comments and blank lines do not count;
        # a string that is not a docstring, and code with a trailing comment, do
        path = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
        spec = importlib.util.spec_from_file_location("code_lines", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        source = (
            '"""Module\ndocstring."""\n\n# a comment\n'
            'def f(x):  # trailing\n    """Function docstring."""\n'
            '    s = """two\n    lines"""\n\n    return (x,\n            s)\n'
        )
        assert tool.code_lines(source) == 5


class TestTextFormat:
    def test_round_trip_exact(self, rng):
        x = random_matrix(rng, 3, 5)
        back = core.loads_matrix(core.dumps_matrix(x))
        assert back.shape == x.shape
        assert np.array_equal(back, x)

    def test_family_round_trip(self, rng, tmp_path):
        xs = [random_matrix(rng, 2, 3) for _ in range(4)]
        path = tmp_path / "fam.txt"
        path.write_text(core.dumps_family(xs), encoding="ascii")
        back = core.load_family(path)
        assert len(back) == 4
        for a, b in zip(xs, back):
            assert np.array_equal(a, b)

    def test_rejects_nan(self):
        x = np.full((2, 2), np.nan, dtype=complex)
        with pytest.raises(ValueError):
            core.as_matrix(x)


class TestRectangular:
    def test_modulus_of_rectangular(self, rng):
        x = random_matrix(rng, 3, 5)
        m = _modulus(x)
        assert m.shape == (5, 5)
        for p in (1, 2, math.inf):
            assert core.schatten_norm(m, p) == pytest.approx(
                core.schatten_norm(x, p), rel=1e-9
            )

    def test_adjoint_involution_exact(self, rng):
        x = random_matrix(rng, 4, 2)
        assert np.array_equal(core.adjoint(core.adjoint(x)), x)


class TestPolarFactor:
    @pytest.mark.parametrize("shape", [(4, 3, 3), (3, 5, 2)], ids=["square", "tall"])
    @pytest.mark.parametrize("p", [1, 1.5, 2, 4, math.inf])
    def test_batched_norming_element(self, rng, shape, p):
        y = np.stack([random_matrix(rng, *shape[1:]) for _ in range(shape[0])])
        y[1] = 0.0
        xi = core.polar_factor(y, p)
        norms, xi_too = core.norm_and_polar(y, p)
        assert np.array_equal(xi_too, xi)
        assert norms[1] == 0.0
        assert xi.shape == y.shape
        assert not np.any(xi[1])  # the zero slice maps to zero
        for k in (0, 2):
            single = core.polar_factor(y[k], p)
            assert np.allclose(xi[k], single, rtol=0, atol=1e-14)
            pp = core.conjugate_exponent(p)
            assert core.schatten_norm(xi[k], pp) == pytest.approx(1.0, rel=1e-12)
            pairing = np.vdot(xi[k], y[k]).real  # Re tr(xi* y)
            assert pairing == pytest.approx(core.schatten_norm(y[k], p), rel=1e-12)
            assert norms[k] == pytest.approx(core.schatten_norm(y[k], p), rel=1e-14)


def _stacked(op):
    return lambda xs, idx: np.stack([op.apply(x) for x in xs])


# a kind without an exact S^p norm at p != 2, so sector_type ascends on it
_POSITIVE_SCHUR = fc.SchurMult(np.array([[1.0, 2.0], [0.5, 1.5]]))


def _per_start_ascent(op, x0s, p, iters):
    """Reference for power_ascent: the per-start loop it replaced, one
    start at a time with its own norm calls; each start's best ratio."""
    dag = op.dagger()
    pp = core.conjugate_exponent(p)
    out = []
    for x in x0s:
        best = 0.0
        x = x / core.schatten_norm(x, p)
        for _ in range(iters):
            ny, xi = core.norm_and_polar(op.apply(x), p)
            if ny <= 1e-300:
                break
            best = max(best, float(ny))
            x_new = core.polar_factor(dag.apply(xi), pp)
            if np.linalg.norm(x_new - x) <= 1e-12 * np.linalg.norm(x):
                x = x_new
                break
            x = x_new
        nx = core.schatten_norm(x, p)
        if nx > 0:
            best = max(best, core.schatten_norm(op.apply(x), p) / nx)
        out.append(best)
    return np.array(out)


def _kinds(rng, d=3):
    return {
        "left": fc.LeftMult(random_matrix(rng, d)),
        "schur": fc.SchurMult(random_matrix(rng, d)),
        "dense": fc.DenseOp(random_matrix(rng, d * d)),
        "amplified": fc.AmplifiedOp(fc.SchurMult(random_matrix(rng, 2)), 2),
    }


class TestPowerAscent:
    @pytest.mark.parametrize("kind", ["left", "schur", "dense", "amplified"])
    @pytest.mark.parametrize("p", [1, 1.5, 4, math.inf])
    def test_matches_per_start_loop(self, rng, kind, p):
        op = _kinds(rng)[kind]
        x0s = np.stack([random_matrix(rng, op.dim) for _ in range(6)])
        best, best_x = core.power_ascent(
            _stacked(op), _stacked(op.dagger()), x0s, p, 31
        )
        ref = _per_start_ascent(op, x0s, p, 30)  # 30 steps, 31 iterates
        assert best == pytest.approx(ref, rel=1e-13)
        for val, x in zip(best, best_x):  # each value is attained by its witness
            ratio = core.schatten_norm(op.apply(x), p) / core.schatten_norm(x, p)
            assert ratio == pytest.approx(val, rel=1e-13)

    def test_stopped_start_is_frozen(self, rng):
        # E_22 is a fixed point of x -> a x at every p; the random start is not
        op = fc.LeftMult(np.diag([1.0, 2.0]))
        fixed = unit(2, 1, 1)
        x0s = np.stack([fixed, random_matrix(rng, 2)])
        seen = {"fwd": [], "adj": []}

        def record(name, f):
            def g(xs, idx):
                seen[name].append(xs.copy())
                return f(xs, idx)

            return g

        best, best_x = core.power_ascent(
            record("fwd", _stacked(op)), record("adj", _stacked(op)), x0s, 4.0, 20
        )
        assert best[0] == pytest.approx(2.0, rel=1e-15)
        assert np.allclose(best_x[0], fixed, atol=1e-15)
        # the fixed start is stepped once, found fixed, and never seen again
        assert [len(xs) for xs in seen["fwd"] + seen["adj"]].count(2) == 2
        assert all(len(xs) == 1 for xs in seen["fwd"][1:] + seen["adj"][1:])
        assert len(seen["fwd"]) > 2  # the other start keeps moving

    def test_vanishing_starts_stop(self, rng):
        # the zero map, and a zero start of a nonzero map, give ratio 0
        zero = fc.SchurMult(np.zeros((2, 2)))
        x0s = np.stack([random_matrix(rng, 2) for _ in range(3)])
        best, _ = core.power_ascent(_stacked(zero), _stacked(zero), x0s, 4.0, 10)
        assert not np.any(best)
        assert fc._family_opnorm_lower([zero], 4.0, starts=3, iters=40, seed=0).lower == 0.0
        op = fc.LeftMult(np.diag([1.0, 2.0]))
        x0s[1] = 0.0
        best, _ = core.power_ascent(_stacked(op), _stacked(op), x0s, 4.0, 10)
        assert best[1] == 0.0 and np.all(best[[0, 2]] > 1.0)

    def test_sector_type_batches_its_svds(self, monkeypatch):
        svd, calls = np.linalg.svd, [0]

        def counting(*args, **kwargs):
            calls[0] += 1
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        fc.sector_type(_POSITIVE_SCHUR, p=4.0)
        # a 2 x 2 ray family took 54,178 one start at a time, 9,969 with one ascent per member
        assert calls[0] <= 400

    @pytest.mark.parametrize("p", [1.5, 4.0])
    def test_sector_type_matches_per_member_ascents(self, p):
        op = _POSITIVE_SCHUR
        prof = fc.sector_type(op, p=p)
        ref = []
        for theta, _ in prof.constants:
            k = 0.0
            for member in fc.ray_resolvent_family(op, theta, fc.SECTOR_RAY_POINTS):
                rng = np.random.default_rng(0)  # every member gets the same 8 starts
                x0s = np.stack([rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                                for _ in range(8)])
                best, _ = core.power_ascent(
                    _stacked(member), _stacked(member.dagger()), x0s, p, 26
                )
                k = max(k, float(np.max(best)))
            ref.append(k)
        assert [k for _, k in prof.constants] == ref

    def test_starts_carry_their_indices(self, rng):
        # two maps in one batch: start i applies map i // 3
        ops = [fc.LeftMult(np.diag([1.0, 2.0])), fc.RightMult(np.diag([3.0, 0.5]))]
        x0s = np.stack([random_matrix(rng, 2) for _ in range(3)] * 2)

        def each(maps):
            return lambda xs, idx: np.stack([maps[i // 3].apply(x) for x, i in zip(xs, idx)])

        best, _ = core.power_ascent(each(ops), each([op.dagger() for op in ops]), x0s, 4.0, 20)
        for k, op in enumerate(ops):
            alone, _ = core.power_ascent(_stacked(op), _stacked(op.dagger()),
                                         x0s[3 * k : 3 * k + 3], 4.0, 20)
            assert np.array_equal(best[3 * k : 3 * k + 3], alone)
