import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import eval_expr, pretty
from ratex.identcore import (
    RestrictionSet,
    build_ident_system,
    coeff_vec_index,
    coeff_vec_length,
    ident_test_affine,
)
from ratex.exprs import (
    DIV_FLOOR,
    BinOp,
    EvalError,
    Lit,
    ModelFileError,
    Neg,
    ParseError,
    Pow,
    Var,
    compile_exprs,
    parse_expression,
)
from ratex.paramdsl import (
    GenericReport,
    LocalReport,
    SamplerConfig,
    affine_as_nonlinear,
    eval_model,
    fd_jacobian,
    generic_ident,
    local_ident,
    parse_model,
)
from ratex.polylab import LaurentMatrix, Model
from ratex.resolve import solve_model


def employment_model_spec(pin_theta1=False):
    """Three- (or two-) parameter forward-looking adjustment model.

    B(z) = theta1/z - ((theta3/theta2) + 1 + theta1) + z, A = 1/theta2.
    The default box sits inside the valid region: theta1 in (0, 1),
    theta2 < 0, theta3 < 0 puts one zero on each side of the unit circle
    and makes the first impulse response positive.
    """
    if pin_theta1:
        return {
            "n": 1, "m": 1, "lambda": 1, "kappa": 1,
            "params": ["theta2", "theta3"],
            "domain": [[-3.0, -0.5], [-3.0, -0.5]],
            "B": {"-1": "1", "0": "-((theta3/theta2)+2)", "1": "1"},
            "A": {"0": "1/theta2"},
        }
    return {
        "n": 1, "m": 1, "lambda": 1, "kappa": 1,
        "params": ["theta1", "theta2", "theta3"],
        "domain": [[0.05, 0.95], [-3.0, -0.5], [-3.0, -0.5]],
        "B": {"-1": "theta1", "0": "-((theta3/theta2)+1+theta1)", "1": "1"},
        "A": {"0": "1/theta2"},
    }


def rho2(theta1, theta2, theta3):
    s = theta3 / theta2 + 1.0 + theta1
    return (s + np.sqrt(s * s - 4.0 * theta1)) / 2.0


def pin_rows(pins, n, m, kappa, lam):
    N = coeff_vec_length(n, m, kappa, lam)
    R = np.zeros((len(pins), N))
    u = np.zeros(len(pins))
    for k, (block, lag, row, col, val) in enumerate(pins):
        R[k, coeff_vec_index(block, lag, row, col, n, m, kappa, lam)] = 1.0
        u[k] = val
    return R, u


class TestParser:
    def test_employment_model_entries(self):
        pm = parse_model(employment_model_spec())
        assert pm.param_names == ("theta1", "theta2", "theta3")
        assert pm.dim == 3
        assert (pm.n, pm.m, pm.lam, pm.kappa) == (1, 1, 1, 1)
        assert pm.b_entries[-1][0, 0] == Var("theta1")
        assert pm.b_entries[1][0, 0] == Lit(1.0)

    def test_constant_model_zero_params(self):
        pm = parse_model({"n": 1, "m": 1, "lambda": 0, "kappa": 0,
                          "B": {"0": "1"}, "A": {"0": "1"}})
        assert pm.dim == 0
        model = eval_model(pm, [])
        assert model.B.coefficient(0)[0, 0] == 1.0

    def test_malformed_expression_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("theta1 + * 2")
        assert "'*'" in str(err.value)
        assert err.value.col == 10

    def test_error_positions_across_lines(self):
        for text, message, line, col in [("a +\n  * 2", "unexpected '*'", 2, 3),
                                         ("1.5e-3 * b\r\n\t$", "unexpected character '$'", 2, 2),
                                         ("x^2.5", "exponent must be", 1, 3),
                                         ("(θ1 + 2", "expected ')'", 1, 8),
                                         ("1e+ * y", "bad number literal '1e+'", 1, 1)]:
            with pytest.raises(ParseError, match=re.escape(message)) as err:
                parse_expression(text)
            assert (err.value.line, err.value.col) == (line, col)

    def test_unknown_identifier_rejected(self):
        spec = employment_model_spec()
        spec["B"]["0"] = "gamma + 1"
        with pytest.raises(ParseError, match="gamma"):
            parse_model(spec)

    def test_precedence(self):
        # ^ binds tighter than unary minus, which binds tighter than * /
        e = parse_expression("-x^2")
        assert e == Neg(Pow(Var("x"), 2))
        e = parse_expression("(-x)^2")
        assert e == Pow(Neg(Var("x")), 2)
        e = parse_expression("1 - 2*x^2")
        assert e == BinOp("-", Lit(1.0), BinOp("*", Lit(2.0), Pow(Var("x"), 2)))

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("x^1.5")
        with pytest.raises(ParseError):
            parse_expression("x^y")

    def test_json_text_accepted(self):
        pm = parse_model(json.dumps(employment_model_spec()))
        assert pm.dim == 3

    def test_json_text_with_a_lag_key_repeated(self):
        text = ('{"n": 1, "m": 1, "lambda": 0, "kappa": 1,'
                ' "B": {"0": "1", "1": "0.5", "1": "0.7"}, "A": {"0": "1"}}')
        with pytest.raises(ModelFileError, match=r"B lag 1 given twice \(keys '1' and '1'\)"):
            parse_model(text)

    def test_roundtrip_corpus(self, rng):
        names = ["theta1", "theta2", "x_3"]

        def random_tree(depth):
            if depth == 0 or rng.random() < 0.3:
                if rng.random() < 0.5:
                    return Lit(float(np.round(rng.uniform(0, 10), 3)))
                return Var(names[rng.integers(len(names))])
            roll = rng.random()
            if roll < 0.15:
                return Neg(random_tree(depth - 1))
            if roll < 0.3:
                return Pow(random_tree(depth - 1), int(rng.integers(0, 4)))
            op = "+-*/"[rng.integers(4)]
            return BinOp(op, random_tree(depth - 1), random_tree(depth - 1))

        for _ in range(100):
            tree = random_tree(4)
            assert parse_expression(pretty(tree)) == tree


class TestEvalModel:
    def test_employment_point(self):
        pm = parse_model(employment_model_spec())
        with pytest.warns(UserWarning):  # theta1 = 1 sits on the box edge
            model = eval_model(pm, [1.0, -2.0, -1.0])
        # theta3/theta2 = 0.5 so B = 1/z - 2.5 + z, A = -0.5
        assert model.B.coefficient(-1)[0, 0] == pytest.approx(1.0)
        assert model.B.coefficient(0)[0, 0] == pytest.approx(-2.5)
        assert model.B.coefficient(1)[0, 0] == pytest.approx(1.0)
        assert model.A.coefficient(0)[0, 0] == pytest.approx(-0.5)
        assert (model.lam, model.kappa) == (1, 1)

    def test_theta_free_map_constant(self):
        pm = parse_model({"n": 1, "m": 1, "lambda": 0, "kappa": 1,
                          "B": {"0": "1"}, "A": {"0": "1", "1": "0.5"}})
        a = eval_model(pm, [])
        b = eval_model(pm, [])
        assert a.A.allclose(b.A)

    def test_division_pole(self):
        pm = parse_model(employment_model_spec())
        with pytest.raises(EvalError):
            with pytest.warns(UserWarning):
                eval_model(pm, [0.5, 0.0, -1.0])

    def test_out_of_box_warns_only(self):
        pm = parse_model(employment_model_spec())
        with pytest.warns(UserWarning):
            model = eval_model(pm, [0.5, -10.0, -1.0])
        assert model.n == 1

    def test_transfer_matches_resolvent_closed_form(self):
        pm = parse_model(employment_model_spec())
        theta = np.array([0.6, -1.5, -2.0])
        bundle = solve_model(eval_model(pm, theta), horizon=8)
        r2 = rho2(*theta)
        for j in range(9):
            assert bundle.transfer.coefficient(j)[0, 0] == pytest.approx(
                -1.0 / (theta[1] * r2 ** (j + 1)), abs=1e-10)


class TestFdJacobian:
    def test_square(self):
        J = fd_jacobian(lambda x: np.array([x[0] ** 2]), np.array([3.0]))
        assert J[0, 0] == pytest.approx(6.0, abs=1e-6)

    def test_linear_exact(self, rng):
        R = rng.standard_normal((3, 5))
        J = fd_jacobian(lambda x: R @ x, rng.standard_normal(5))
        assert np.allclose(J, R, atol=1e-9)

    def test_employment_c1_analytic_derivative(self):
        pm = parse_model(employment_model_spec())
        theta = np.array([0.5, -2.0, -1.0])

        def c1(th):
            return np.array([solve_model(eval_model(pm, th), horizon=2)
                             .transfer.coefficient(1)[0, 0]])

        J = fd_jacobian(c1, theta)
        # hand-differentiated closed form through the quadratic-root formula
        t1, t2, t3 = theta
        s = t3 / t2 + 1 + t1
        d = np.sqrt(s * s - 4 * t1)
        r2 = (s + d) / 2
        ds = np.array([1.0, -t3 / t2 ** 2, 1.0 / t2])
        dd = (s * ds - 2 * np.array([1.0, 0.0, 0.0])) / d
        dr2 = (ds + dd) / 2
        denom = t2 * r2 ** 2
        ddenom = np.array([0.0, 1.0, 0.0]) * r2 ** 2 + 2 * t2 * r2 * dr2
        expected = ddenom / denom ** 2
        assert np.allclose(J[0], expected, atol=1e-6)


class TestGenericIdent:
    def test_three_parameter_family_never_identified(self):
        pm = parse_model(employment_model_spec())
        R, u = pin_rows([("B", 1, 0, 0, 1.0), ("A", 1, 0, 0, 0.0)], 1, 1, 1, 1)
        report = generic_ident(pm, RestrictionSet.affine(R, u),
                               SamplerConfig(num_samples=48, seed=1, min_valid=16))
        assert report.verdict == "evidence_not_identified"
        assert report.samples_valid >= 16
        assert report.deficient_count == report.samples_valid
        assert report.borderline_count == 0
        assert not report.full_rank_found
        assert any("not a proof" in n for n in report.notes)

    def test_pinned_discount_factor_identified(self):
        pm = parse_model(employment_model_spec(pin_theta1=True))
        R, u = pin_rows([("B", 1, 0, 0, 1.0), ("A", 1, 0, 0, 0.0),
                         ("B", -1, 0, 0, 1.0)], 1, 1, 1, 1)
        res = RestrictionSet.affine(R, u)
        report = generic_ident(pm, res, SamplerConfig(
            num_samples=16, seed=2, probe_points=((-2.0, -1.0),)))
        assert report.verdict == "generically_identified"
        theta, rank_report = report.witness
        assert theta == pytest.approx([-2.0, -1.0])
        assert rank_report.identified
        # the other connected component also carries a witness
        spec2 = employment_model_spec(pin_theta1=True)
        spec2["domain"] = [[0.8, 1.2], [-6.0, -4.9]]
        report2 = generic_ident(parse_model(spec2), res, SamplerConfig(
            num_samples=4, seed=3, probe_points=((1.0, -5.0),)))
        assert report2.verdict == "generically_identified"
        assert report2.witness[0] == pytest.approx([1.0, -5.0])

    def test_identity_like_map_with_full_pinning(self):
        pm = parse_model({
            "n": 1, "m": 1, "lambda": 0, "kappa": 0,
            "params": ["b", "a"], "domain": [[0.5, 2.0], [0.5, 2.0]],
            "B": {"0": "b"}, "A": {"0": "a"}})
        N = coeff_vec_length(1, 1, 0, 0)
        report = generic_ident(pm, RestrictionSet.affine(np.eye(N), [1.0, 1.0]),
                               SamplerConfig(num_samples=8, seed=4))
        assert report.full_rank_found
        assert report.samples_drawn == 1  # witness on the first valid draw

    def test_determinism(self):
        pm = parse_model(employment_model_spec())
        R, u = pin_rows([("B", 1, 0, 0, 1.0), ("A", 1, 0, 0, 0.0)], 1, 1, 1, 1)
        cfg = SamplerConfig(num_samples=12, seed=9)
        a = generic_ident(pm, RestrictionSet.affine(R, u), cfg)
        b = generic_ident(pm, RestrictionSet.affine(R, u), cfg)
        assert a == b

    def test_invalid_samples_reported(self):
        # domain straddles the pole theta2 = 0, so some draws blow up
        spec = employment_model_spec()
        spec["domain"] = [[0.05, 0.95], [-1.0, 1.0], [-3.0, -0.5]]
        pm = parse_model(spec)
        R, u = pin_rows([("B", 1, 0, 0, 1.0)], 1, 1, 1, 1)
        report = generic_ident(pm, RestrictionSet.affine(R, u),
                               SamplerConfig(num_samples=24, seed=5, min_valid=50))
        assert report.samples_drawn == 24
        assert report.samples_valid < 24
        assert report.invalid_reasons


class TestLocalIdent:
    def scalar_model(self):
        return Model(LaurentMatrix.constant([[2.0]]),
                     LaurentMatrix.constant([[1.0]]), lam=0, kappa=0)

    def test_affine_path_agreement(self, rng):
        from conftest import make_valid_model
        for _ in range(10):
            n = int(rng.integers(1, 3))
            lam = int(rng.integers(0, 2))
            kappa = int(rng.integers(0, 2))
            model, *_ = make_valid_model(rng, n=n, m=n, lam=lam, kappa=kappa)
            bundle = solve_model(model)
            sys = build_ident_system(bundle.transfer, n, n, kappa, lam)
            N = coeff_vec_length(n, n, kappa, lam)
            r = int(rng.integers(1, N + 1))
            R = rng.standard_normal((r, N))
            from ratex.identcore import model_coeff_vec
            u = R @ model_coeff_vec(model)
            if not np.any(np.abs(u) > 1e-9):
                continue
            affine_report = ident_test_affine(sys, RestrictionSet.affine(R, u), model)
            local_report = local_ident(model, affine_as_nonlinear(R, u))
            assert local_report.locally_identified == affine_report.identified
            # the finite-difference Jacobian reproduces R itself
            J = fd_jacobian(lambda x: R @ x - u, model_coeff_vec(model))
            assert np.allclose(J, R, atol=1e-6)

    def test_squared_pin_regularity_caveat(self):
        model = self.scalar_model()

        def residual(x):
            return np.array([(x[1] - 1.0) ** 2])

        report = local_ident(model, RestrictionSet.nonlinear(residual, 1))
        assert not report.locally_identified
        assert report.rank_locally_constant is False
        assert "inconclusive" in report.note
        assert "regularity" in report.note

    def test_quadratic_plus_linear_pins_identify(self):
        model = self.scalar_model()
        x0 = np.array([2.0, 1.0])

        def residual(x):
            return (x - x0) + (x - x0) ** 2

        report = local_ident(model, RestrictionSet.nonlinear(residual, 2))
        assert report.locally_identified

    def test_violated_restrictions_rejected(self):
        model = self.scalar_model()
        with pytest.raises(ValueError, match="do not hold"):
            local_ident(model, RestrictionSet.nonlinear(
                lambda x: np.array([x[1] - 5.0]), 1))

    def test_equation_mode_scalar_matches_system(self, rng):
        from conftest import make_valid_model
        model, *_ = make_valid_model(rng, n=1, m=1, lam=1, kappa=1)
        N = coeff_vec_length(1, 1, 1, 1)
        R = rng.standard_normal((2, N))
        from ratex.identcore import model_coeff_vec
        u = R @ model_coeff_vec(model)
        sys_report = local_ident(model, affine_as_nonlinear(R, u))
        eq_report = local_ident(model, affine_as_nonlinear(R, u, equation=1))
        assert sys_report.locally_identified == eq_report.locally_identified

    def test_affine_sets_rank_R_itself(self, rng, monkeypatch):
        # R is the exact Jacobian: same rank as the finite-difference path,
        # no differencing, and a deficient rank is constant without probes
        from conftest import make_valid_model
        from ratex import paramdsl
        from ratex.identcore import model_coeff_vec
        model, *_ = make_valid_model(rng, n=2, m=2, lam=1, kappa=1)
        x0 = model_coeff_vec(model)
        N = coeff_vec_length(2, 2, 1, 1)
        cases = [(RestrictionSet.affine(R, R @ x0), affine_as_nonlinear(R, R @ x0))
                 for R in (rng.standard_normal((r, N)) for r in (2, N))]
        row = x0.reshape(2, -1, order="F")[1]
        R = rng.standard_normal((3, row.size))
        cases.append((RestrictionSet.for_equation(2, R, R @ row),
                      affine_as_nonlinear(R, R @ row, equation=2)))
        expected = [local_ident(model, wrapped) for _, wrapped in cases]

        def no_differencing(*args, **kwargs):
            raise AssertionError("affine restrictions need no finite differences")

        monkeypatch.setattr(paramdsl, "fd_jacobian", no_differencing)
        for (affine, _), want in zip(cases, expected):
            got = local_ident(model, affine)
            assert got.rank_report.numerical_rank == want.rank_report.numerical_rank
            assert got.locally_identified == want.locally_identified
            if not got.locally_identified:
                assert got.rank_locally_constant is True
                assert got.probe_ranks == ()
        assert not local_ident(model, cases[0][0]).locally_identified
        assert local_ident(model, cases[1][0]).locally_identified
        with pytest.raises(ValueError, match="do not hold"):
            local_ident(model, RestrictionSet.affine(np.eye(1, N), [x0[0] + 1.0]))


def walk(expr, env, divisors=None):
    """Plain recursive evaluation, the oracle for the compiled evaluator;
    records |divisor| of every division in ``divisors``."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Neg):
        return -walk(expr.operand, env, divisors)
    if isinstance(expr, Pow):
        return walk(expr.base, env, divisors) ** expr.exponent
    left, right = walk(expr.left, env, divisors), walk(expr.right, env, divisors)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    if divisors is not None:
        divisors.append(abs(right))
    return left / right


NAMES = ("a", "b", "c")
trees = st.recursive(
    st.one_of(st.builds(Lit, st.floats(0.25, 4.0)), st.sampled_from(NAMES).map(Var)),
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(Pow, sub, st.integers(0, 3)),
        st.builds(BinOp, st.sampled_from("+-*/"), sub, sub)),
    max_leaves=10)


class TestCompiledExprs:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(exprs=st.lists(trees, min_size=1, max_size=3),
           x=st.lists(st.floats(0.5, 2.0) | st.floats(-2.0, -0.5), min_size=3, max_size=3))
    def test_matches_walk_and_finite_differences(self, exprs, x):
        env = dict(zip(NAMES, x))
        divisors = []
        try:
            want = [walk(e, env, divisors) for e in exprs]
        except (ZeroDivisionError, OverflowError):
            want = None
        assume(want is not None and all(d >= 1e-3 for d in divisors))
        program = compile_exprs([pretty(e) for e in exprs],
                                {name: k for k, name in enumerate(NAMES)})
        assert program.trees() == exprs
        got = program.values(np.array(x))
        # the same arithmetic in the same order: bitwise equal values
        assert got.tolist() == want
        J = program.jacobian(np.array(x))
        assert J.shape == (len(exprs), 3)
        F = fd_jacobian(program.values, np.array(x))
        scale = 1.0 + np.abs(J)
        assert np.all(np.abs(J - F) <= 1e-6 * scale)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(exprs=st.lists(trees, min_size=1, max_size=6),
           x=st.lists(st.floats(0.5, 2.0) | st.floats(-2.0, -0.5), min_size=3, max_size=3),
           plant=st.tuples(st.integers(0, 5), st.integers(0, 200),
                           st.sampled_from(["$", ")", "((", "^x", "\n  * ", "1e+", " 2 "])))
    def test_one_file_matches_each_expression_alone(self, exprs, x, plant):
        """K expressions compiled as one file: the values of each compiled
        alone and of the tree walk, bitwise; the Jacobian of each alone; and
        a syntax error planted in expression k at its position alone."""
        names = {name: k for k, name in enumerate(NAMES)}
        texts = [pretty(e) for e in exprs]
        env = dict(zip(NAMES, x))
        divisors = []
        try:
            want = [walk(e, env, divisors) for e in exprs]
        except (ZeroDivisionError, OverflowError):
            want = None
        if want is not None and all(d >= 1e-3 for d in divisors):
            program = compile_exprs(texts, names)
            alone = [compile_exprs([t], names) for t in texts]
            got = program.values(np.array(x))
            assert got.tolist() == want
            assert got.tolist() == [p.values(np.array(x))[0] for p in alone]
            stack = program.values(np.array([x, x]))
            assert stack.tolist() == [want, want]
            J = program.jacobian(np.array(x))
            for row, p in zip(J, alone):
                assert np.array_equal(row, p.jacobian(np.array(x))[0])

        k, at, junk = plant
        k %= len(texts)
        at %= len(texts[k]) + 1
        planted = texts[:k] + [texts[k][:at] + junk + texts[k][at:]] + texts[k + 1:]
        try:
            parse_expression(planted[k])
        except ParseError as exc:
            alone_error = exc
        else:
            assume(False)
        with pytest.raises(ParseError) as err:
            compile_exprs(planted + ["$ also bad"], names)
        assert str(err.value) == str(alone_error)
        assert (err.value.line, err.value.col) == (alone_error.line, alone_error.col)

    def test_division_below_floor_raises_on_both_paths(self):
        program = compile_exprs(["1 + a / (b * 1e-301)"], {"a": 0, "b": 1})
        assert 1e-301 < DIV_FLOOR
        for evaluate in (program.values, program.jacobian):
            with pytest.raises(EvalError, match="division"):
                evaluate(np.array([1.0, 1.0]))
        with pytest.raises(EvalError, match="division"):
            eval_expr(parse_expression("a / (a - a)"), {"a": 3.0})

    def test_sparse_exact_jacobian(self):
        program = compile_exprs(["a^3 - 2*c", "-(b/a)"], {"a": 0, "b": 2, "c": 4})
        x = np.array([2.0, 9.0, 3.0, 9.0, 5.0])
        assert program.values(x).tolist() == [-2.0, -1.5]
        J = program.jacobian(x)
        expected = np.zeros((2, 5))
        expected[0, 0], expected[0, 4] = 12.0, -2.0
        expected[1, 0], expected[1, 2] = 3.0 / 4.0, -0.5
        assert np.array_equal(J, expected)

    def test_unknown_name_rejected(self):
        with pytest.raises(EvalError, match="unknown identifier 'z'"):
            compile_exprs(["a + z"], {"a": 0})
        with pytest.raises(EvalError, match="unknown identifier 'z'"):
            eval_expr(parse_expression("z"), {"a": 1.0})


VARMA_SPEC = {
    "n": 2, "m": 2, "lambda": 0, "kappa": 1,
    "params": ["b11", "b12", "b21", "b22", "a0", "a1", "a2"],
    "domain": [[-0.4, 0.4]] * 4 + [[0.5, 1.5], [-0.3, 0.3], [-0.3, 0.3]],
    "B": {"0": [[1, 0], [0, 1]], "1": [["b11", "b12"], ["b21", "b22"]]},
    "A": {"0": [["a0", 0], ["a1*a0", "a0^2 - a1/a0"]],
          "1": [["a2", "-a1"], [0, "(a1 + a2)/(1 + a0)"]]},
}


class TestEvalModelOracle:
    @pytest.mark.parametrize("spec", [employment_model_spec(), VARMA_SPEC],
                             ids=["employment", "varma"])
    def test_bitwise_equal_to_per_entry_walk(self, spec, rng):
        pm = parse_model(spec)
        lo, hi = pm.domain[:, 0], pm.domain[:, 1]
        for _ in range(20):
            theta = lo + (hi - lo) * rng.random(pm.dim)
            model = eval_model(pm, theta)
            env = dict(zip(pm.param_names, theta.tolist()))
            for lm, entries, lags in ((model.B, pm.b_entries, range(-pm.lam, pm.kappa + 1)),
                                      (model.A, pm.a_entries, range(pm.kappa + 1))):
                for lag in lags:
                    want = np.zeros(lm.coefficient(lag).shape)
                    if lag in entries:
                        want = np.vectorize(lambda e: walk(e, env), otypes=[float])(
                            entries[lag])
                    assert np.array_equal(lm.coefficient(lag), want)
