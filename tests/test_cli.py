import argparse
import csv
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import coeff_vec_index, parse_expression
from ratex.cli import build_parser, main
from ratex.identcore import RestrictionSet, coeff_vec_length
from ratex.identcore import _ident_test as ident_test
from ratex.modelio import (
    ModelFileError,
    _position,
    compile_nonlinear,
    load_model_file,
    model_from_dict,
    restrictions_from_dict,
)
from ratex.exprs import ParseError
from ratex.paramdsl import ParamMap
from ratex.polylab import Model


def write(path, obj):
    """obj as JSON, or a string as the file's text."""
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


def mixed_lag_model():
    return {"n": 1, "m": 1, "lambda": 1, "kappa": 1,
            "B": {"-1": [[1 / 3]], "0": [[1.0]], "1": [[0.5]]},
            "A": {"0": [[1.0]], "1": [[0.5]]}}


def white_noise_model():
    return {"n": 1, "m": 1, "lambda": 1, "kappa": 1,
            "B": {"0": [[1.0]]}, "A": {"0": [[1.0]]}}


def employment_model():
    return {"n": 1, "m": 1, "lambda": 1, "kappa": 1,
            "parametrized": {
                "params": ["theta2", "theta3"],
                "domain": [[-3.0, -0.5], [-3.0, -0.5]],
                "B": {"-1": "1", "0": "-((theta3/theta2)+2)", "1": "1"},
                "A": {"0": "1/theta2"}}}


class TestModelFiles:
    def test_numeric_roundtrip(self, tmp_path):
        path = write(tmp_path / "m.json", mixed_lag_model())
        model = load_model_file(path)
        assert isinstance(model, Model)
        assert model.B.coefficient(-1)[0, 0] == pytest.approx(1 / 3)
        assert (model.lam, model.kappa) == (1, 1)

    def test_parametrized_form(self, tmp_path):
        path = write(tmp_path / "p.json", employment_model())
        pm = load_model_file(path)
        assert isinstance(pm, ParamMap)
        assert pm.param_names == ("theta2", "theta3")

    def test_both_forms_rejected(self):
        spec = mixed_lag_model()
        spec["parametrized"] = employment_model()["parametrized"]
        with pytest.raises(ModelFileError):
            model_from_dict(spec)

    def test_shape_validation(self):
        spec = mixed_lag_model()
        spec["B"]["0"] = [[1.0, 2.0]]
        with pytest.raises(ModelFileError):
            model_from_dict(spec)

    def test_lag_bound_validation(self):
        spec = mixed_lag_model()
        spec["A"]["2"] = [[1.0]]
        with pytest.raises(ModelFileError):
            model_from_dict(spec)

    def test_scalar_shorthand(self):
        spec = {"n": 1, "m": 1, "lambda": 0, "kappa": 0, "B": {"0": 2.0}, "A": {"0": 1.0}}
        model = model_from_dict(spec)
        assert model.B.coefficient(0)[0, 0] == 2.0


class TestRestrictionFiles:
    def test_pins_compile(self):
        res = restrictions_from_dict(
            {"pins": [{"block": "B", "lag": -1, "row": 1, "col": 1, "value": 0.0},
                      {"block": "A", "lag": 0, "row": 1, "col": 1, "value": 1.0}]},
            n=1, m=1, kappa=1, lam=1)
        assert res.kind == "affine"
        # R = [[1, 0, 0, 0, 0], [0, 0, 0, 1, 0]], one unit entry per pin
        assert res.shape == (2, 5)
        rows, cols, values = res.entries
        assert (rows.tolist(), cols.tolist(), values.tolist()) == ([0, 1], [0, 3], [1.0, 1.0])
        assert res.u.tolist() == [0.0, 1.0]

    def test_dense_form(self):
        res = restrictions_from_dict({"R": [[1, 0, 0, 0, 0]], "u": [1.0]},
                                     n=1, m=1, kappa=1, lam=1)
        assert res.kind == "affine" and res.r == 1

    def test_equation_mode(self):
        res = restrictions_from_dict(
            {"equation": 2,
             "pins": [{"block": "A", "lag": 0, "row": 2, "col": 1, "value": 1.0}]},
            n=2, m=1, kappa=1, lam=0)
        assert res.kind == "equation" and res.equation == 2
        assert res.shape == (1, 2 * 2 + 1 * 2)

    def test_equation_row_mismatch(self):
        with pytest.raises(ModelFileError):
            restrictions_from_dict(
                {"equation": 1,
                 "pins": [{"block": "A", "lag": 0, "row": 2, "col": 1, "value": 1.0}]},
                n=2, m=1, kappa=1, lam=0)

    def test_nonlinear_compiles_named_coefficients(self):
        res = restrictions_from_dict({"nonlinear": ["(A[0][1][1]-1)^2"]},
                                     n=1, m=1, kappa=0, lam=0)
        assert res.kind == "nonlinear" and res.r == 1
        assert res.residual_fn(np.array([2.0, 1.0]))[0] == pytest.approx(0.0)
        assert res.residual_fn(np.array([2.0, 3.0]))[0] == pytest.approx(4.0)

    def test_nonlinear_bad_reference(self):
        with pytest.raises(ModelFileError):
            compile_nonlinear(["B[0][5][1]"], n=1, m=1, kappa=0, lam=0)
        # equation mode: B lag 2 lies outside -lam..kappa = 0..1
        with pytest.raises(ModelFileError):
            compile_nonlinear(["B[2][1][1] - 0.5"], n=2, m=1, kappa=1, lam=0, equation=1)

    @pytest.mark.parametrize("text", ["B[-1][1][1] + * 2", "(A[0][1][1]\n  - B[1][1][1]) $",
                                      "B[0][1][1] B[0][1][1]"])
    def test_syntax_errors_point_into_the_text(self, text):
        # a reference is one name token of the expression grammar, so an
        # error gives the position and token of the restriction as written
        with pytest.raises(ParseError) as want:
            parse_expression(text)
        with pytest.raises(ParseError) as got:
            compile_nonlinear([text], n=1, m=1, kappa=1, lam=1)
        assert (got.value.line, got.value.col) == (want.value.line, want.value.col)
        assert str(got.value) == str(want.value)
        assert isinstance(got.value, ModelFileError)

    def test_only_references_and_no_other_names(self):
        with pytest.raises(ModelFileError, match="unknown identifier '_B_0_1_1'"):
            compile_nonlinear(["B[0][1][1] - _B_0_1_1"], n=1, m=1, kappa=0, lam=0)

    def test_dependent_rows_warn(self):
        with pytest.warns(UserWarning):
            restrictions_from_dict({"R": [[1, 0, 0, 0, 0], [2, 0, 0, 0, 0]],
                                    "u": [1.0, 2.0]}, n=1, m=1, kappa=1, lam=1)

    def test_duplicate_pins_warn_without_an_svd(self, monkeypatch):
        # pin rows are unit vectors: their rank is the number of distinct
        # positions, counted without numerical_rank
        from ratex import modelio

        def no_svd(*args, **kwargs):
            raise AssertionError("ranked a pin file by SVD")

        monkeypatch.setattr(modelio, "numerical_rank", no_svd)
        spec = pins(("B", -1, 1.0), ("A", 0, 1.0), ("B", -1, 0.5))
        with pytest.warns(UserWarning, match=r"row rank 2 of 3"):
            restrictions_from_dict(spec, n=1, m=1, kappa=1, lam=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            restrictions_from_dict(pins(("B", -1, 1.0), ("A", 0, 1.0)), n=1, m=1, kappa=1, lam=1)

    def test_wrong_width_rejected(self):
        with pytest.raises(ModelFileError):
            restrictions_from_dict({"R": [[1, 0]], "u": [1.0]}, n=1, m=1, kappa=1, lam=1)

    @pytest.mark.parametrize("block, lag, row, col, equation, message", [
        ("B", 0, 3, 1, None, "row/col outside 1-based bounds"),
        ("A", 0, 1, 2, None, "row/col outside 1-based bounds"),
        ("B", 0, 1, 1, 2, "equation-2 restrictions may only reference row 2"),
        ("B", 2, 1, 1, None, "outside 0..1"),
    ])
    def test_pin_and_reference_errors_name_their_source(self, block, lag, row, col,
                                                        equation, message):
        # pins and B[lag][row][col] references share one decoder; its
        # errors name the pin number or the reference text (n = 2, m = 1,
        # lags 0..1)
        spec = {} if equation is None else {"equation": equation}
        good = {"block": "B", "lag": 0, "row": equation or 1, "col": 1, "value": 1.0}
        bad = {"block": block, "lag": lag, "row": row, "col": col, "value": 0.0}
        with pytest.raises(ModelFileError, match=f"^pin #2: .*{message}"):
            restrictions_from_dict({**spec, "pins": [good, bad]}, n=2, m=1, kappa=1, lam=0)
        ref = f"{block}[{lag}][{row}][{col}]"
        with pytest.raises(ModelFileError, match=f"^{re.escape(ref)}: .*{message}"):
            restrictions_from_dict({**spec, "nonlinear": [f"({ref} - 1)^2"]},
                                   n=2, m=1, kappa=1, lam=0)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2),
                          st.integers(0, 2)),
           refs=st.lists(st.tuples(st.sampled_from("AB"), st.integers(-4, 4),
                                   st.integers(-1, 4), st.integers(-1, 4)),
                         min_size=1, max_size=12),
           equation=st.none() | st.integers(1, 3))
    def test_position_map_matches_the_scalar_oracle(self, dims, refs, equation):
        """The position rule that pins and references share: each reference
        (1-based row and column) at coeff_vec_index's position, and an
        error exactly when that has none or, with an equation, when the row
        is another."""
        n, m, kappa, lam = dims
        for block, lag, row, col in refs:
            try:
                want = coeff_vec_index(block, lag, row - 1, col - 1, n, m, kappa, lam,
                                       equation is not None)
            except IndexError:
                want = None
            if equation is not None and row != equation:
                want = None
            try:
                got = _position(1, block, lag, row, col, n, m, kappa, lam, equation)
            except ModelFileError:
                got = None
            assert got == want


class TestFactorizeCommand:
    def test_mixed_lag_report(self, tmp_path, capsys):
        path = write(tmp_path / "m.json", mixed_lag_model())
        assert main(["factorize", path]) == 0
        out = capsys.readouterr().out
        b0 = (3 + np.sqrt(3)) / 6
        assert f"{b0:.6f}"[:8] in out or f"{b0:.12g}"[:10] in out
        assert "residual" in out

    def test_varma_identity_line(self, tmp_path, capsys):
        path = write(tmp_path / "m.json", {"n": 1, "m": 1, "lambda": 0, "kappa": 1,
                                           "B": {"0": [[1.0]], "1": [[0.4]]},
                                           "A": {"0": [[1.0]]}})
        assert main(["factorize", path]) == 0
        assert "B- = I" in capsys.readouterr().out

    def test_unit_circle_zero_exit_2(self, tmp_path, capsys):
        path = write(tmp_path / "m.json", {"n": 1, "m": 1, "lambda": 0, "kappa": 1,
                                           "B": {"0": [[1.0]], "1": [[-1.0]]},
                                           "A": {"0": [[1.0]]}})
        assert main(["factorize", path]) == 2
        assert "circle" in capsys.readouterr().out

    def test_missing_file_exit_1(self, capsys):
        assert main(["factorize", "/nonexistent/m.json"]) == 1

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_coefficient_exit_1(self, tmp_path, capsys, bad):
        path = tmp_path / "m.json"
        path.write_text('{"n": 1, "m": 1, "lambda": 0, "kappa": 1, '
                        f'"B": {{"0": 1, "1": {bad}}}, "A": {{"0": 1}}}}')
        assert main(["factorize", str(path)]) == 1
        assert "B[1]: coefficients must be finite" in capsys.readouterr().err

    def test_band_covering_the_disk(self, tmp_path, capsys):
        # z B(z) = -0.5 + z + 0.2 z^2 has one zero in 0 < |z| < 2
        path = write(tmp_path / "m.json", {"n": 1, "m": 1, "lambda": 1, "kappa": 1,
                                           "B": {"-1": [[-0.5]], "0": [[1.0]], "1": [[0.2]]},
                                           "A": {"0": [[1.0]]}})
        assert main(["factorize", path, "--tol-boundary", "1"]) == 2
        assert capsys.readouterr().out == ("existence/uniqueness fails: 1 zero(s) of "
                                           "det(z^1 B(z)) within 1 of the unit circle\n")

    def test_json_report(self, tmp_path, capsys):
        path = write(tmp_path / "m.json", mixed_lag_model())
        assert main(["factorize", path, "--format", "json-report"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "factorized"
        assert payload["residual"] <= 1e-10


class TestOriginZeros:
    # lam = 0 with B = z (1 - 0.5 z): the zero of det B at the origin is
    # inside the unit circle, so existence/uniqueness fails up front
    @pytest.mark.parametrize("command", ["factorize", "solve"])
    def test_positive_min_lag_fails_eu(self, tmp_path, capsys, command):
        path = write(tmp_path / "m.json", {"n": 1, "m": 1, "lambda": 0, "kappa": 2,
                                           "B": {"1": [[1.0]], "2": [[-0.5]]},
                                           "A": {"0": [[1.0]]}})
        assert main([command, path, "--format", "json-report"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 2
        assert "inside the unit circle" in payload["reason"]
        assert "lag-0 coefficient of B_plus is singular" not in payload["reason"]


class TestUsage:
    """main returns an exit code for every argument list: argparse's usage
    errors exit 1 with its message on standard error, --help exits 0."""

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "M", "--format", "text"], "unrecognized arguments: --format text"),
        (["simulate", "M", "--T", "-1"], "argument --T: expected an integer >= 0, got -1"),
        (["generic", "M", "R", "--seed", "-2"], "argument --seed: expected an integer >= 0"),
        (["equiv", "M", "M", "--grid", "0"], "argument --grid: expected an integer >= 1"),
        (["solve", "M", "--theta", "0.5,x"], "argument --theta: invalid float_list value"),
        (["generic", "M", "R", "--probe", "x"], "argument --probe: invalid float_list value"),
        (["equiv", "M", "M", "--tol", "nan"], "argument --tol: invalid tolerance value: 'nan'"),
        (["equiv", "M", "M", "--tol", "-1"], "argument --tol: invalid tolerance value: '-1'"),
        (["ident", "M", "R", "--tol-rank", "nan"], "argument --tol-rank: invalid tolerance"),
        (["ident", "M", "R", "--tol-rank", "-1"], "argument --tol-rank: invalid tolerance"),
        (["local", "M", "R", "--tol-rank", "inf"], "argument --tol-rank: invalid tolerance"),
        (["factorize", "M", "--tol-boundary", "nan"], "argument --tol-boundary: invalid tolerance"),
        (["factorize", "M", "--tol-boundary", "x"], "argument --tol-boundary: invalid tolerance"),
        (["generic", "M", "R", "--min-valid", "0"],
         "argument --min-valid: expected an integer >= 1, got 0"),
        (["solve", "M", "--horizon", "-1"], "argument --horizon: expected an integer >= 0, got -1"),
    ])
    def test_usage_error_exit_1(self, tmp_path, capsys, argv, message):
        path = write(tmp_path / "m.json", ds_model())
        assert main([path if a in ("M", "R") else a for a in argv]) == 1
        assert message in capsys.readouterr().err

    def test_zero_tolerances_are_accepted(self, tmp_path):
        path = write(tmp_path / "m.json", ds_model())
        r = write(tmp_path / "r.json", pins(("B", 0, 1.0)))
        assert main(["factorize", path, "--tol-boundary", "0"]) == 0
        assert main(["ident", path, r, "--tol-rank", "0"]) == 0
        assert main(["equiv", path, path, "--tol", "0"]) == 0

    @pytest.mark.parametrize("argv", [["--help"], ["factorize", "--help"]])
    def test_help_exit_0(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage:")

    def test_program_fault_is_not_a_file_error(self, tmp_path, monkeypatch):
        # a ValueError from a numerical layer propagates: only InputError,
        # OSError and EvalError are reported as file or validation errors
        from ratex import cli

        def broken(*args, **kwargs):
            raise ValueError("fault")

        monkeypatch.setattr(cli, "solve_model", broken)
        with pytest.raises(ValueError, match="fault"):
            main(["solve", write(tmp_path / "m.json", ds_model())])


class TestSolveCommand:
    def test_white_noise(self, tmp_path, capsys):
        path = write(tmp_path / "m.json", white_noise_model())
        assert main(["solve", path, "--horizon", "3"]) == 0
        out = capsys.readouterr().out
        assert "CF: canonical" in out
        assert "C_0" in out and "C_3" in out

    def test_rank_deficient_c0_exit_2(self, tmp_path, capsys):
        spec = {"n": 1, "m": 1, "lambda": 0, "kappa": 1,
                "B": {"0": [[1.0]]}, "A": {"1": [[1.0]]}}  # A(0) = 0
        path = write(tmp_path / "m.json", spec)
        assert main(["solve", path]) == 2

    def test_noninvertible_exit_2(self, tmp_path):
        spec = {"n": 1, "m": 1, "lambda": 0, "kappa": 1,
                "B": {"0": [[1.0]]}, "A": {"0": [[1.0]], "1": [[-2.0]]}}
        path = write(tmp_path / "m.json", spec)
        assert main(["solve", path]) == 2

    def test_unit_circle_rank_drop_warns_in_text(self, tmp_path, capsys):
        # M(z) = 1 + z loses rank at z = -1, on the circle: a warning, not a failure
        path = write(tmp_path / "m.json", {"n": 1, "m": 1, "lambda": 0, "kappa": 1,
                                           "B": {"0": 1.0}, "A": {"0": 1.0, "1": 1.0}})
        assert main(["solve", path]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == \
            "warning: moving-average rank drop on the unit circle near z = -1-0j"

    def test_rotation_past_a_dependent_row(self, tmp_path, capsys):
        # C_0 = A_0 = [[1, 1], [1, 1], [0, 1]]: its second row lies in the
        # span of the first, so the rotation pivots on rows 1 and 3
        path = write(tmp_path / "m.json", {"n": 3, "m": 2, "lambda": 0, "kappa": 0,
                                           "B": {"0": np.eye(3).tolist()},
                                           "A": {"0": [[1, 1], [1, 1], [0, 1]]}})
        assert main(["solve", path, "--format", "json-report"]) == 0
        payload = json.loads(capsys.readouterr().out)
        s = np.sqrt(0.5)
        assert not payload["cf_canonical_input"]
        np.testing.assert_allclose(payload["rotation"], [[s, -s], [s, s]], atol=1e-15)
        np.testing.assert_allclose(payload["transfer"][0], [[2 * s, 0], [2 * s, 0], [s, s]],
                                   atol=1e-15)
        assert main(["solve", path]) == 0
        out = capsys.readouterr().out.splitlines()
        at = out.index("rotation V:")
        assert out[at - 1:at + 3] == ["CF: rotated into canonical form", "rotation V:",
                                      "  [ 0.707106781187  -0.707106781187 ]",
                                      "  [ 0.707106781187  0.707106781187 ]"]


class TestEquivCommand:
    def test_equivalent_pair_both_oracles(self, tmp_path, capsys):
        a = write(tmp_path / "a.json", white_noise_model())
        b = write(tmp_path / "b.json", {"n": 1, "m": 1, "lambda": 1, "kappa": 1,
                                        "B": {"0": [[1.0]], "1": [[0.5]]},
                                        "A": {"0": [[1.0]], "1": [[0.5]]}})
        assert main(["equiv", a, b, "--oracle", "both"]) == 0
        out = capsys.readouterr().out
        assert "kernel oracle: equivalent" in out
        assert "spectral oracle: equivalent" in out

    def test_forward_shifted_pair(self, tmp_path):
        a = write(tmp_path / "a.json", white_noise_model())
        b = write(tmp_path / "b.json", mixed_lag_model())
        assert main(["equiv", a, b]) == 0

    def test_spectral_oracle_needs_equal_n(self, tmp_path, capsys):
        models = [write(tmp_path / f"m{n}.json", {"n": n, "m": 1, "lambda": 0, "kappa": 0,
                                                   "B": {"0": np.eye(n).tolist()},
                                                   "A": {"0": np.ones((n, 1)).tolist()}})
                  for n in (2, 3)]
        assert main(["equiv", *models, "--oracle", "spectral"]) == 1
        assert "models must share the dimension n" in capsys.readouterr().err

    def test_parametrized_file_rejected(self, tmp_path, capsys):
        a = write(tmp_path / "a.json", white_noise_model())
        p = write(tmp_path / "p.json", employment_model())
        assert main(["equiv", a, p]) == 1
        assert capsys.readouterr().err == "error: equiv needs numeric models on both sides\n"

    def test_kernel_oracle_needs_equal_dimensions(self, tmp_path, capsys):
        models = [write(tmp_path / f"m{n}.json", {"n": n, "m": 1, "lambda": 0, "kappa": 0,
                                                   "B": {"0": np.eye(n).tolist()},
                                                   "A": {"0": np.ones((n, 1)).tolist()}})
                  for n in (2, 3)]
        assert main(["equiv", *models]) == 1
        assert capsys.readouterr().err == "error: models must share dimensions (n, m)\n"

    def test_oracles_disagree(self, tmp_path, capsys):
        # A_0 off by 1e-6: relative residuals about 1e-6 (kernel) and 2e-6
        # (spectral), so a tolerance between them splits the two oracles
        a = write(tmp_path / "a.json", ds_model())
        b = write(tmp_path / "b.json", {**ds_model(), "A": {"0": [[1.000001]]}})
        assert main(["equiv", a, b, "--format", "json-report"]) == 3
        oracles = json.loads(capsys.readouterr().out)["oracles"]
        rel = {name: r["residual"] / r["scale"] for name, r in oracles.items()}
        assert rel["kernel"] < rel["spectral"] / 1.5
        tol = repr(float(np.sqrt(rel["kernel"] * rel["spectral"])))
        assert main(["equiv", a, b, "--tol", tol, "--format", "json-report"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "oracles_disagree"
        assert [payload["oracles"][k]["equivalent"] for k in ("kernel", "spectral")] == \
            [True, False]
        assert main(["equiv", a, b, "--tol", tol]) == 4
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "warning: the two oracles disagree; check tolerances", "verdict: oracles_disagree"]

    @pytest.mark.parametrize("order", [1, -1])
    def test_lag_bounds_differ(self, tmp_path, order):
        # the same model declared with kappa = 1 and kappa = 2: the kernel
        # test runs at the joint bounds, past the first model's own horizon
        spec = {"n": 1, "m": 1, "lambda": 1, "kappa": 1,
                "B": {"-1": [[-0.5]], "0": [[1.0]], "1": [[0.2]]}, "A": {"0": [[1.0]]}}
        a = write(tmp_path / "a.json", spec)
        b = write(tmp_path / "b.json", {**spec, "kappa": 2})
        assert main(["equiv", *[a, b][::order], "--oracle", "kernel"]) == 0

    def test_not_equivalent_exit_3(self, tmp_path):
        a = write(tmp_path / "a.json", white_noise_model())
        b = write(tmp_path / "b.json", {"n": 1, "m": 1, "lambda": 1, "kappa": 1,
                                        "B": {"0": [[1.0]]},
                                        "A": {"0": [[1.0]], "1": [[0.5]]}})
        assert main(["equiv", a, b]) == 3


class TestIdentCommand:
    def restriction_file(self, tmp_path):
        return write(tmp_path / "r.json", {"pins": [
            {"block": "B", "lag": -1, "row": 1, "col": 1, "value": 0.0},
            {"block": "A", "lag": 0, "row": 1, "col": 1, "value": 1.0}]})

    def test_white_noise_not_identified(self, tmp_path, capsys):
        path = write(tmp_path / "m.json", white_noise_model())
        assert main(["ident", path, self.restriction_file(tmp_path)]) == 3
        assert "not_identified" in capsys.readouterr().out

    def test_generic_point_identified(self, tmp_path, capsys):
        spec = {"n": 1, "m": 1, "lambda": 1, "kappa": 1,
                "B": {"-1": [[0.2]], "0": [[1.1]], "1": [[0.3]]},
                "A": {"0": [[1.0]], "1": [[0.4]]}}
        path = write(tmp_path / "m.json", spec)
        r = write(tmp_path / "r.json", {"pins": [
            {"block": "B", "lag": -1, "row": 1, "col": 1, "value": 0.2},
            {"block": "A", "lag": 0, "row": 1, "col": 1, "value": 1.0}]})
        code = main(["ident", path, r, "--format", "json-report"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["verdict"] == "identified"
        assert payload["required_rank"] == payload["equivalence_class_dim"]
        assert len(payload["singular_values"]) >= payload["required_rank"]

    def test_ds_flag_agreement(self, tmp_path, capsys):
        spec = {"n": 1, "m": 1, "lambda": 0, "kappa": 1,
                "B": {"0": [[1.0]], "1": [[-0.5]]}, "A": {"0": [[1.0]]}}
        path = write(tmp_path / "m.json", spec)
        r = write(tmp_path / "r.json", {"pins": [
            {"block": "B", "lag": 0, "row": 1, "col": 1, "value": 1.0},
            {"block": "A", "lag": 0, "row": 1, "col": 1, "value": 1.0}]})
        assert main(["ident", path, r, "--ds"]) == 0
        assert "agrees" in capsys.readouterr().out

    def test_equation_mode(self, tmp_path, capsys):
        spec = {"n": 1, "m": 1, "lambda": 1, "kappa": 1,
                "B": {"-1": [[0.2]], "0": [[1.1]], "1": [[0.3]]},
                "A": {"0": [[1.0]], "1": [[0.4]]}}
        path = write(tmp_path / "m.json", spec)
        r = write(tmp_path / "r.json", {"equation": 1, "pins": [
            {"block": "B", "lag": -1, "row": 1, "col": 1, "value": 0.2},
            {"block": "A", "lag": 0, "row": 1, "col": 1, "value": 1.0}]})
        code = main(["ident", path, r])
        out = capsys.readouterr().out
        assert "equation 1" in out
        assert code in (0, 3)


class TestGenericCommand:
    def test_not_identified_family(self, tmp_path, capsys):
        path = write(tmp_path / "p.json", employment_model())
        r = write(tmp_path / "r.json", {"pins": [
            {"block": "B", "lag": 1, "row": 1, "col": 1, "value": 1.0},
            {"block": "A", "lag": 1, "row": 1, "col": 1, "value": 0.0}]})
        code = main(["generic", path, r, "--samples", "24", "--seed", "1",
                     "--format", "json-report"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["verdict"] == "evidence_not_identified"

    def test_identified_with_extra_pin(self, tmp_path, capsys):
        path = write(tmp_path / "p.json", employment_model())
        r = write(tmp_path / "r.json", {"pins": [
            {"block": "B", "lag": 1, "row": 1, "col": 1, "value": 1.0},
            {"block": "A", "lag": 1, "row": 1, "col": 1, "value": 0.0},
            {"block": "B", "lag": -1, "row": 1, "col": 1, "value": 1.0}]})
        code = main(["generic", path, r, "--samples", "8", "--seed", "2",
                     "--probe=-2,-1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "witness at theta = (-2, -1)" in out

    def test_tol_rank_leaves_the_canonical_form_check_alone(self, tmp_path, capsys):
        # n = 2 > m = 1 with M(z) = A(z) = [1 + 2z; 1 + (2 + d) z]: at d = 0 it
        # loses rank at z = -1/2, and at d = 1e-5 sigma_min(M(z)) near there
        # is about 2e-6 of its scale, a rank drop at a cutoff of 1e-4 but not
        # at the fixed DEFAULT_TOL_RANK that solve uses
        path = write(tmp_path / "p.json", {"n": 2, "m": 1, "lambda": 0, "kappa": 1,
                                            "parametrized": {
                                                "params": ["d"], "domain": [[-1.0, 1.0]],
                                                "B": {"0": [[1, 0], [0, 1]],
                                                      "1": [[-0.5, 0], [0, -0.3]]},
                                                "A": {"0": [[1], [1]], "1": [[2], ["2 + d"]]}}})
        r = write(tmp_path / "r.json", {"pins": [
            {"block": "B", "lag": 0, "row": i, "col": j, "value": float(i == j)}
            for i in (1, 2) for j in (1, 2)]})
        assert main(["solve", path, "--theta", "0"]) == 2
        assert main(["solve", path, "--theta", "1e-5"]) == 0
        capsys.readouterr()
        reports = []
        for tol in ([], ["--tol-rank", "1e-4"]):
            main(["generic", path, r, "--probe", "0", "--probe", "1e-5", "--samples", "0",
                  "--format", "json-report", *tol])
            reports.append(json.loads(capsys.readouterr().out))
        for report in reports:
            assert report["samples_drawn"] == 2 and report["samples_valid"] == 1
            assert report["invalid_reasons"] == {"not_invertible": 1}

    def test_invalid_draws_in_text(self, tmp_path, capsys):
        path = write(tmp_path / "p.json", root_model([0.1, 0.5]))
        r = write(tmp_path / "r.json", pins(("A", 0, 1.0)))
        assert main(["generic", path, r, "--samples", "8"]) == 4
        out = capsys.readouterr().out.splitlines()
        assert out[:3] == ["verdict: inconclusive",
                           "samples: 8 drawn, 0 valid, 0 rank-deficient, 0 borderline",
                           "  invalid (eu_failed: WrongStableCount): 8"]

    def test_a_draw_that_fails_evaluation(self, tmp_path, capsys):
        path = write(tmp_path / "p.json", param_model(A={"0": "1/a"}))
        r = write(tmp_path / "r.json", pins(("B", 0, 1.0)))
        assert main(["generic", path, r, "--probe", "0", "--samples", "0",
                     "--format", "json-report"]) == 4
        assert json.loads(capsys.readouterr().out)["invalid_reasons"] == {"eval_error": 1}

    def test_numeric_model_rejected(self, tmp_path):
        path = write(tmp_path / "m.json", white_noise_model())
        r = write(tmp_path / "r.json", {"pins": [
            {"block": "B", "lag": 1, "row": 1, "col": 1, "value": 1.0}]})
        assert main(["generic", path, r]) == 1


class TestLocalCommand:
    def test_regularity_caveat(self, tmp_path, capsys):
        path = write(tmp_path / "m.json", {"n": 1, "m": 1, "lambda": 0, "kappa": 0,
                                           "B": {"0": [[2.0]]}, "A": {"0": [[1.0]]}})
        r = write(tmp_path / "r.json", {"nonlinear": ["(A[0][1][1]-1)^2"]})
        code = main(["local", path, r])
        out = capsys.readouterr().out
        assert code == 4
        assert "inconclusive" in out
        assert "not_locally_identified" not in out

    def test_affine_through_nonlinear_path(self, tmp_path, capsys):
        spec = {"n": 1, "m": 1, "lambda": 1, "kappa": 1,
                "B": {"-1": [[0.2]], "0": [[1.1]], "1": [[0.3]]},
                "A": {"0": [[1.0]], "1": [[0.4]]}}
        path = write(tmp_path / "m.json", spec)
        r = write(tmp_path / "r.json", {"pins": [
            {"block": "B", "lag": -1, "row": 1, "col": 1, "value": 0.2},
            {"block": "A", "lag": 0, "row": 1, "col": 1, "value": 1.0}]})
        assert main(["local", path, r]) == 0
        assert "locally_identified" in capsys.readouterr().out

    def test_deficient_pin_file_constant_rank(self, tmp_path, capsys):
        # one pin leaves the equivalence class of this model unresolved; an
        # affine map's rank is the same everywhere, so nothing is probed
        path = write(tmp_path / "m.json", mixed_lag_model())
        r = write(tmp_path / "r.json", {"pins": [
            {"block": "B", "lag": -1, "row": 1, "col": 1, "value": 1 / 3}]})
        code = main(["local", path, r, "--format", "json-report"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["rank_locally_constant"] is True
        assert payload["probe_ranks"] == []


class TestLocalIsIdentOnAffineFiles:
    """On an affine restriction file ``local`` runs the ``ident`` test, and
    both commands judge membership by one bound, 1e-8 (1 + max |x|) at the
    model's point x (``identcore.membership``): ``ident`` warns past it,
    ``local`` rejects.  Each case gives both commands the same judgement,
    exit code and standard error."""

    RANK_FIELDS = ("verdict", "required_rank", "numerical_rank", "singular_values",
                   "gap_ratio", "warnings")

    def run(self, capsys, *argv):
        code = main([*argv, "--format", "json-report"])
        captured = capsys.readouterr()
        out = json.loads(captured.out) if captured.out else None
        return code, out and {key: out[key] for key in self.RANK_FIELDS}, captured.err

    def large_point(self, tmp_path):
        """B = 1, A = 1000: the bound at the point is 1e-8 * 1001."""
        return write(tmp_path / "m.json", {"n": 1, "m": 1, "lambda": 0, "kappa": 0,
                                           "B": {"0": 1.0}, "A": {"0": 1000.0}})

    def test_pin_missing_by_less_than_the_bound(self, tmp_path, capsys):
        # B_0 pinned to 1.0000005 misses by 5e-7: a member for both commands,
        # whether the pin is a pins file or an expression (which ident does
        # not take, so it answers as for the pins file)
        path = self.large_point(tmp_path)
        pinned = write(tmp_path / "pins.json", pins(("B", 0, 1.0000005)))
        expr = write(tmp_path / "expr.json", {"nonlinear": ["B[0][1][1] - 1.0000005"]})
        ident = self.run(capsys, "ident", path, pinned)
        assert (ident[0], ident[1]["verdict"], ident[1]["warnings"], ident[2]) == \
            (0, "identified", [], "")
        assert self.run(capsys, "local", path, pinned) == ident
        assert self.run(capsys, "local", path, expr) == ident

    @pytest.mark.parametrize("miss, member", [(0.9e-5, True), (1.1e-5, False)])
    def test_ident_warns_where_local_rejects(self, tmp_path, capsys, miss, member):
        path = self.large_point(tmp_path)
        pinned = write(tmp_path / "pins.json", pins(("B", 0, 1.0 + miss)))
        expr = write(tmp_path / "expr.json", {"nonlinear": [f"B[0][1][1] - {1.0 + miss!r}"]})
        for r in (pinned, expr):
            code, rank, err = self.run(capsys, "local", path, r)
            if member:
                assert (code, err) == (0, "")
            else:
                assert (code, rank) == (1, None)
                assert err == "error: restrictions do not hold at the point " \
                              f"(residual {miss:.3e})\n"
        code, rank, err = self.run(capsys, "ident", path, pinned)
        assert (code, err) == (0, "")
        assert rank["warnings"] == ([] if member else [
            f"affine restrictions not satisfied at the point (residual {miss:.3e}); "
            "the verdict presupposes membership"])
        assert main(["ident", path, pinned]) == 0
        assert [line for line in capsys.readouterr().out.splitlines() if "warning" in line] \
            == [f"  warning: {w}" for w in rank["warnings"]]

    def test_zero_u_pins(self, tmp_path, capsys):
        # a VARMA(1, 1) with B_0 = I; pins B_0[1, 2] = B_0[2, 1] = 0 leave u = 0
        path = write(tmp_path / "m.json", {
            "n": 2, "m": 2, "lambda": 0, "kappa": 1,
            "B": {"0": [[1, 0], [0, 1]], "1": [[-0.5, 0.1], [0.2, -0.3]]},
            "A": {"0": [[1, 0], [0.5, 1]]}})
        r = write(tmp_path / "r.json", {"pins": [
            {"block": "B", "lag": 0, "row": 1, "col": 2, "value": 0},
            {"block": "B", "lag": 0, "row": 2, "col": 1, "value": 0}]})
        results = []
        for command in ("ident", "local"):
            results.append((main([command, path, r]), capsys.readouterr()))
        (ident_code, ident), (local_code, local) = results
        assert ident_code == local_code == 1
        assert ident.out == local.out == ""
        # one line for one defect: the rank test's check, no construction-time warning
        assert ident.err == local.err == (
            "error: u = 0 is meaningless: the whole scale direction satisfies it\n")

    def test_same_rank_test(self, tmp_path, capsys, monkeypatch):
        # singular values, rank and gap ratio equal to the bit, through one function
        from conftest import make_valid_model
        from ratex import paramdsl

        model, *_ = make_valid_model(np.random.default_rng(3), n=2, m=2, lam=1, kappa=1)
        path = write(tmp_path / "m.json", numeric_spec(model))
        b_pins = [{"block": "B", "lag": lag, "row": i, "col": j,
                   "value": float(model.B.coefficient(lag)[i - 1, j - 1])}
                  for lag in (-1, 0, 1) for i in (1, 2) for j in (1, 2)]
        row = [pin for pin in b_pins if pin["row"] == 2]
        calls = []
        monkeypatch.setattr(paramdsl, "_ident_test",
                            lambda *args: calls.append(args) or ident_test(*args))
        for k, (spec, code) in enumerate([({"pins": b_pins}, 0), ({"pins": b_pins[:7]}, 3),
                                          ({"equation": 2, "pins": row}, 0),
                                          ({"equation": 2, "pins": row[:3]}, 3)]):
            r = write(tmp_path / f"r{k}.json", spec)
            ident = self.run(capsys, "ident", path, r)
            assert ident[0] == code
            assert self.run(capsys, "local", path, r) == ident
        assert len(calls) == 4


def numeric_spec(model):
    return {"n": model.n, "m": model.m, "lambda": model.lam, "kappa": model.kappa,
            "B": {str(lag): model.B.coefficient(lag).tolist()
                  for lag in range(-model.lam, model.kappa + 1)},
            "A": {str(lag): model.A.coefficient(lag).tolist()
                  for lag in range(model.kappa + 1)}}


def squared_b_pins(model, rows):
    """Every B coefficient of ``rows`` (1-based) pinned through x^2 = v^2."""
    return [f"B[{lag}][{i}][{j}]^2 - {v ** 2!r}" if abs(v) > 0.1 else
            f"B[{lag}][{i}][{j}] - {v!r}"
            for lag in range(-model.lam, model.kappa + 1)
            for j in range(1, model.n + 1) for i in rows
            for v in [float(model.B.coefficient(lag)[i - 1, j - 1])]]


class TestLocalExactJacobian:
    """`local` on expression files ranks the exact Jacobian: the exit code,
    rank and probe ranks of the finite-difference path, with no differencing."""

    def cases(self):
        from conftest import make_valid_model
        model, *_ = make_valid_model(np.random.default_rng(11), n=2, m=2, lam=1, kappa=0)
        full = squared_b_pins(model, rows=(1, 2))
        row = squared_b_pins(model, rows=(2,))
        a11 = float(model.A.coefficient(0)[0, 0])
        # exit codes: identified 0, deficient with constant rank 3, regularity fails 4
        return model, [({"nonlinear": full}, 0),
                       ({"nonlinear": full[:-1]}, 3),
                       ({"nonlinear": [f"(A[0][1][1] - {a11!r})^2"]}, 4),
                       ({"equation": 2, "nonlinear": row}, 0),
                       ({"equation": 2, "nonlinear": row[:-1]}, 3)]

    def test_same_verdicts_without_differencing(self, tmp_path, capsys, monkeypatch):
        from ratex import paramdsl
        from ratex.paramdsl import local_ident

        model, cases = self.cases()
        path = write(tmp_path / "m.json", numeric_spec(model))
        expected = []
        for spec, _ in cases:
            compiled = restrictions_from_dict(spec, model.n, model.m, model.kappa, model.lam)
            opaque = RestrictionSet.nonlinear(compiled.residual_fn, compiled.r,
                                              equation=compiled.equation)
            expected.append(local_ident(model, opaque))

        def no_differencing(*args, **kwargs):
            raise AssertionError("compiled expressions need no finite differences")

        monkeypatch.setattr(paramdsl, "fd_jacobian", no_differencing)
        for k, ((spec, code), want) in enumerate(zip(cases, expected)):
            r = write(tmp_path / f"r{k}.json", spec)
            assert main(["local", path, r, "--format", "json-report"]) == code
            payload = json.loads(capsys.readouterr().out)
            assert payload["numerical_rank"] == want.rank_report.numerical_rank
            assert payload["probe_ranks"] == list(want.probe_ranks)
            assert payload["rank_locally_constant"] == want.rank_locally_constant


class TestCsvCommands:
    def test_spectrum_constant_column(self, tmp_path):
        path = write(tmp_path / "m.json", white_noise_model())
        out = tmp_path / "s.csv"
        assert main(["spectrum", path, "--grid", "16", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        for row in rows:
            assert float(row["re_f_1_1"]) == pytest.approx(1.0, abs=1e-10)
            assert float(row["im_f_1_1"]) == pytest.approx(0.0, abs=1e-10)

    def test_equivalent_pair_same_spectrum_csv(self, tmp_path):
        a = write(tmp_path / "a.json", white_noise_model())
        b = write(tmp_path / "b.json", mixed_lag_model())
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["spectrum", a, "--grid", "32", "--out", str(out_a)]) == 0
        assert main(["spectrum", b, "--grid", "32", "--out", str(out_b)]) == 0
        ra = list(csv.reader(open(out_a)))[1:]
        rb = list(csv.reader(open(out_b)))[1:]
        for x, y in zip(ra, rb):
            assert float(x[1]) == pytest.approx(float(y[1]), abs=1e-9)

    def test_simulate_deterministic(self, tmp_path):
        path = write(tmp_path / "m.json", mixed_lag_model())
        o1, o2 = tmp_path / "1.csv", tmp_path / "2.csv"
        assert main(["simulate", path, "--T", "50", "--seed", "9", "--out", str(o1)]) == 0
        assert main(["simulate", path, "--T", "50", "--seed", "9", "--out", str(o2)]) == 0
        assert o1.read_text() == o2.read_text()

    def test_simulate_columns(self, tmp_path):
        path = write(tmp_path / "m.json", white_noise_model())
        out = tmp_path / "y.csv"
        assert main(["simulate", path, "--T", "10", "--seed", "1", "--out", str(out)]) == 0
        with open(out) as fh:
            header = next(csv.reader(fh))
        assert header == ["t", "y_1"]

    @pytest.mark.parametrize("argv", [["spectrum", "--grid", "8"],
                                      ["simulate", "--T", "6", "--out", "-"]])
    def test_table_to_standard_output(self, tmp_path, capsys, argv):
        path = write(tmp_path / "m.json", mixed_lag_model())
        out = tmp_path / "table.csv"
        assert main([argv[0], path, *argv[1:], "--out", str(out)]) == 0
        assert main([argv[0], path, *argv[1:]]) == 0
        assert capsys.readouterr().out == out.read_bytes().decode()

    @pytest.mark.parametrize("command, size", [("spectrum", 24), ("spectrum", 0),
                                               ("simulate", 40)])
    def test_bytes_match_csv_writer(self, tmp_path, command, size):
        from ratex.cli import _fmt
        from ratex.resolve import simulate, solve_model, spectral_density, unit_circle_grid

        from conftest import make_valid_model
        model, *_ = make_valid_model(np.random.default_rng(5), n=3, m=2, lam=1, kappa=1)
        path = write(tmp_path / "m.json", numeric_spec(model))
        out = tmp_path / "out.csv"
        bundle = solve_model(model)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if command == "spectrum":
                assert main(["spectrum", path, "--grid", str(size), "--out", str(out)]) == 0
                density = spectral_density(model, bundle.a_plus, unit_circle_grid(size))
                writer.writerow(["omega"] + [f"{part}_f_{i}_{j}" for i in (1, 2, 3)
                                             for j in (1, 2, 3) for part in ("re", "im")])
                for k, f in enumerate(density):
                    writer.writerow([_fmt(2 * np.pi * k / size)] + [
                        _fmt(p) for v in f.flat for p in (v.real, v.imag)])
            else:
                assert main(["simulate", path, "--T", str(size), "--seed", "3",
                             "--out", str(out)]) == 0
                y = simulate(bundle, size, seed=3)
                writer.writerow(["t", "y_1", "y_2", "y_3"])
                for t in range(size):
                    writer.writerow([t] + [_fmt(v) for v in y[t]])
        assert out.read_bytes() == expected.read_bytes()
        assert b"\r\n" in out.read_bytes()


class TestThetaOption:
    def test_parametrized_factorize_with_theta(self, tmp_path, capsys):
        path = write(tmp_path / "p.json", employment_model())
        assert main(["factorize", path, "--theta=-2,-1"]) == 0

    def test_parametrized_without_theta_is_error(self, tmp_path):
        path = write(tmp_path / "p.json", employment_model())
        assert main(["factorize", path]) == 1

    @pytest.mark.parametrize("command, extra", [
        ("factorize", []), ("solve", []), ("ident", ["r.json"]), ("local", ["q.json"]),
        ("spectrum", ["--out", "s.csv"]), ("simulate", ["--out", "y.csv"])])
    def test_theta_on_numeric_model_is_error(self, tmp_path, capsys, command, extra):
        # a numeric file has nothing to evaluate: --theta is refused, not ignored
        path = write(tmp_path / "m.json", mixed_lag_model())
        write(tmp_path / "r.json", pins(("B", -1, 1 / 3), ("A", 0, 1.0)))
        write(tmp_path / "q.json", {"nonlinear": ["B[-1][1][1]^2 - 1/9", "A[0][1][1] - 1"]})
        extra = [str(tmp_path / a) if "." in a else a for a in extra]
        assert main([command, path, *extra, "--theta", "1,2"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {path} is numeric; --theta applies to " \
                                    "parametrized models\n"
        assert not (tmp_path / "s.csv").exists() and not (tmp_path / "y.csv").exists()


class TestMisc:
    def test_large_rank_tolerance_makes_every_rank_deficient(self, tmp_path):
        spec = {"n": 1, "m": 1, "lambda": 1, "kappa": 1,
                "B": {"-1": [[0.2]], "0": [[1.1]], "1": [[0.3]]},
                "A": {"0": [[1.0]], "1": [[0.4]]}}
        path = write(tmp_path / "m.json", spec)
        r = write(tmp_path / "r.json", {"pins": [
            {"block": "B", "lag": -1, "row": 1, "col": 1, "value": 0.2},
            {"block": "A", "lag": 0, "row": 1, "col": 1, "value": 1.0}]})
        assert main(["ident", path, r, "--tol-rank", "1e6"]) == 3
        assert main(["ident", path, r]) == 0

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        assert main(["factorize", str(path)]) == 1

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 1
        assert "error" in capsys.readouterr().err


# -- report schema -----------------------------------------------------------

RANK_KEYS = {"verdict", "required_rank", "numerical_rank", "singular_values",
             "gap_ratio", "warnings"}
FAILURE_KEYS = {"command", "verdict", "reason", "exit_code"}


def unit_root_model():
    """B = 1 - z: a zero on the unit circle, so existence/uniqueness fails."""
    return {"n": 1, "m": 1, "lambda": 0, "kappa": 1,
            "B": {"0": [[1.0]], "1": [[-1.0]]}, "A": {"0": [[1.0]]}}


def ident_point_model():
    return {"n": 1, "m": 1, "lambda": 1, "kappa": 1,
            "B": {"-1": [[0.2]], "0": [[1.1]], "1": [[0.3]]},
            "A": {"0": [[1.0]], "1": [[0.4]]}}


def ds_model():
    return {"n": 1, "m": 1, "lambda": 0, "kappa": 1,
            "B": {"0": [[1.0]], "1": [[-0.5]]}, "A": {"0": [[1.0]]}}


def root_model(domain):
    """B(z) = a - z with lam = 0 and a in ``domain``: a draw fails
    existence/uniqueness exactly when |a| < 1, its zero inside the circle."""
    return {"n": 1, "m": 1, "lambda": 0, "kappa": 1,
            "parametrized": {"params": ["a"], "domain": [domain],
                             "B": {"0": "a", "1": "-1"}, "A": {"0": "1"}}}


def pins(*entries):
    return {"pins": [{"block": b, "lag": lag, "row": 1, "col": 1, "value": v}
                     for b, lag, v in entries]}


def one_pin(**fields):
    """A file of one B pin with ``fields`` replaced; a None field is left out."""
    pin = {"block": "B", "lag": 0, "row": 1, "col": 1, "value": 1.0, **fields}
    return {"pins": [{key: v for key, v in pin.items() if v is not None}]}


class TestReportSchema:
    """One golden json-report payload per command: its key set (nested
    blocks included), verdict and exit code."""

    GOLDEN = {
        "factorize": (
            [("m", mixed_lag_model())], [],
            {"command", "verdict", "exit_code", "b_minus", "b_plus", "zeros",
             "residual", "scale"},
            {"b_minus": {"-1", "0"}, "b_plus": {"0", "1"}}, "factorized", 0),
        "solve": (
            [("m", mixed_lag_model())], ["--horizon", "2"],
            {"command", "verdict", "exit_code", "ma_part", "a_plus", "transfer",
             "cf_canonical_input", "rotation", "c0_rank", "warnings"},
            {"ma_part": {"0", "1"}, "a_plus": {"-1", "0", "1"}}, "solved", 0),
        "equiv": (
            [("a", white_noise_model()), ("b", mixed_lag_model())], [],
            {"command", "verdict", "exit_code", "oracles"},
            {"oracles": {"kernel", "spectral"},
             "oracles.kernel": {"equivalent", "residual", "scale"},
             "oracles.spectral": {"equivalent", "residual", "scale"}}, "equivalent", 0),
        "ident": (
            [("m", ds_model()), ("r", pins(("B", 0, 1.0), ("A", 0, 1.0)))], ["--ds"],
            {"command", "mode", "exit_code", "equivalence_class_dim", "hankel_rank",
             "ds", "ds_agrees"} | RANK_KEYS,
            {"ds": RANK_KEYS}, "identified", 0),
        "generic": (
            [("p", employment_model()),
             ("r", pins(("B", 1, 1.0), ("A", 1, 0.0), ("B", -1, 1.0)))],
            ["--samples", "8", "--seed", "2", "--probe=-2,-1"],
            {"command", "verdict", "exit_code", "samples_drawn", "samples_valid",
             "deficient_count", "borderline_count", "invalid_reasons", "notes", "witness"},
            {"witness": {"theta"} | RANK_KEYS}, "generically_identified", 0),
        "local": (
            [("m", ident_point_model()), ("r", pins(("B", -1, 0.2), ("A", 0, 1.0)))], [],
            {"command", "exit_code", "note", "rank_locally_constant", "probe_ranks"} | RANK_KEYS,
            {}, "identified", 0),     # the rank verdict: see the cli docstring
    }

    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_golden_payload(self, tmp_path, capsys, command):
        files, extra, keys, nested, verdict, code = self.GOLDEN[command]
        paths = [write(tmp_path / f"{name}.json", spec) for name, spec in files]
        assert main([command, *paths, *extra, "--format", "json-report"]) == code
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == keys
        for path, want in nested.items():
            block = payload
            for key in path.split("."):
                block = block[key]
            assert set(block) == want, path
        assert (payload["command"], payload["verdict"], payload["exit_code"]) == (
            command, verdict, code)

    def test_json_report_is_one_sorted_line(self, tmp_path, capsys):
        path = write(tmp_path / "m.json", mixed_lag_model())
        assert main(["solve", path, "--format", "json-report"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        payload = json.loads(out)

        def keys_sorted(node):
            if isinstance(node, dict):
                return list(node) == sorted(node) and all(map(keys_sorted, node.values()))
            return not isinstance(node, list) or all(map(keys_sorted, node))

        assert keys_sorted(payload) and len(payload) > 1
        assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == out[:-1]

    @pytest.mark.parametrize("command, verdict, lead", [
        ("factorize", "eu_failed", "existence/uniqueness fails: "),
        ("solve", "solve_failed", "solve failed: "),
    ])
    def test_failure_payload(self, tmp_path, capsys, command, verdict, lead):
        path = write(tmp_path / "m.json", unit_root_model())
        assert main([command, path, "--format", "json-report"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == FAILURE_KEYS
        assert (payload["command"], payload["verdict"], payload["exit_code"]) == (
            command, verdict, 2)
        assert "circle" in payload["reason"]
        assert main([command, path]) == 2
        assert capsys.readouterr().out == f"{lead}{payload['reason']}\n"

    @pytest.mark.parametrize("command", ["spectrum", "simulate"])
    def test_csv_failure_goes_to_stderr(self, tmp_path, capsys, command):
        path = write(tmp_path / "m.json", unit_root_model())
        assert main([command, path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("solve failed: ") and "circle" in err


class TestParserAudit:
    """Every option a command accepts is one it reads: the option set of
    each subcommand (positionals by name, -h aside) equals this table."""

    OPTIONS = {
        "factorize": {"model", "--theta", "--format", "--tol-boundary"},
        "solve": {"model", "--theta", "--format", "--horizon"},
        "equiv": {"model_a", "model_b", "--oracle", "--grid", "--tol", "--format"},
        "ident": {"model", "restrictions", "--theta", "--tol-rank", "--format", "--ds"},
        "generic": {"model", "restrictions", "--tol-rank", "--format", "--samples",
                    "--seed", "--min-valid", "--probe"},
        "local": {"model", "restrictions", "--theta", "--tol-rank", "--format"},
        "spectrum": {"model", "--theta", "--grid", "--out"},
        "simulate": {"model", "--theta", "--T", "--seed", "--out"},
    }

    def test_option_sets(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        found = {name: {s for a in p._actions if not isinstance(a, argparse._HelpAction)
                        for s in (a.option_strings or [a.dest])}
                 for name, p in sub.choices.items()}
        assert found == self.OPTIONS


class TestSolveFailureOrder:
    """Restriction errors (the kind, u = 0, a point off the restrictions)
    are file errors (exit 1) even when the model would fail
    existence/uniqueness (exit 2): they are checked first."""

    def eu_failing_model(self, tmp_path):
        return write(tmp_path / "m.json", unit_root_model())

    def test_nonlinear_file_to_ident(self, tmp_path, capsys):
        r = write(tmp_path / "r.json", {"nonlinear": ["B[0][1][1]-1"]})
        assert main(["ident", self.eu_failing_model(tmp_path), r]) == 1
        assert "belong to the 'local' command" in capsys.readouterr().err

    def test_ds_with_equation_restrictions(self, tmp_path, capsys):
        r = write(tmp_path / "r.json", {"equation": 1, **pins(("B", 0, 1.0))})
        assert main(["ident", self.eu_failing_model(tmp_path), r, "--ds"]) == 1
        assert "needs system-wide affine restrictions" in capsys.readouterr().err

    def test_ds_with_positive_lam(self, tmp_path, capsys):
        # B = 1/z - 2 + z: a double zero at z = 1
        path = write(tmp_path / "m.json", {"n": 1, "m": 1, "lambda": 1, "kappa": 1,
                                           "B": {"-1": [[1.0]], "0": [[-2.0]], "1": [[1.0]]},
                                           "A": {"0": [[1.0]]}})
        r = write(tmp_path / "r.json", pins(("B", -1, 1.0)))
        assert main(["ident", path, r, "--ds"]) == 1
        assert "requires lam = 0" in capsys.readouterr().err

    def test_affine_file_still_reports_the_solve_failure(self, tmp_path):
        r = write(tmp_path / "r.json", pins(("B", 0, 1.0)))
        assert main(["ident", self.eu_failing_model(tmp_path), r]) == 2

    def test_local_point_off_the_restrictions(self, tmp_path, capsys):
        r = write(tmp_path / "r.json", pins(("B", 0, 2.0)))      # B_0 is 1
        assert main(["local", self.eu_failing_model(tmp_path), r]) == 1
        assert "error: restrictions do not hold at the point" in capsys.readouterr().err

    def test_zero_u_to_ident(self, tmp_path, capsys):
        r = write(tmp_path / "r.json", pins(("B", 0, 0.0)))
        assert main(["ident", self.eu_failing_model(tmp_path), r]) == 1
        assert "error: u = 0 is meaningless" in capsys.readouterr().err

    @pytest.mark.parametrize("domain, any_valid", [([0.1, 0.5], False), ([2.0, 3.0], True)])
    def test_nonlinear_file_to_generic_whatever_the_draws(self, tmp_path, capsys, domain,
                                                          any_valid):
        path = write(tmp_path / "p.json", root_model(domain))
        pinned = write(tmp_path / "pins.json", pins(("A", 0, 1.0)))
        main(["generic", path, pinned, "--samples", "8", "--format", "json-report"])
        assert (json.loads(capsys.readouterr().out)["samples_valid"] > 0) == any_valid
        r = write(tmp_path / "r.json", {"nonlinear": ["B[1][1][1] + 1"]})
        assert main(["generic", path, r, "--samples", "8"]) == 1
        assert capsys.readouterr().err == \
            "error: system-wide test needs affine restrictions\n"


class TestFailedReordering:
    """A pencil whose zero counts pass but whose split at the unit circle
    yields no divisor that reconstructs B (see test_wienerhopf) is a
    solvability failure, not a file error."""

    def coefficients(self):
        from conftest import near_band_stack

        Bc = near_band_stack(np.random.default_rng(0), 1, 1.01, ["in", "out", "out", "in"])[0]
        return {str(lag - 1): c.tolist() for lag, c in enumerate(Bc)}

    @pytest.mark.parametrize("command, verdict", [("factorize", "eu_failed"),
                                                  ("solve", "solve_failed")])
    def test_exit_2_with_failure_payload(self, tmp_path, capsys, command, verdict):
        path = write(tmp_path / "m.json", {"n": 2, "m": 2, "lambda": 1, "kappa": 1,
                                           "B": self.coefficients(),
                                           "A": {"0": np.eye(2).tolist()}})
        assert main([command, path, "--format", "json-report"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == verdict
        assert payload["reason"].startswith("reconstruction residual")

    def test_generic_counts_the_sample(self, tmp_path, capsys):
        # B does not depend on theta, so every draw fails the same way
        entries = {lag: [[repr(v) for v in row] for row in c]
                   for lag, c in self.coefficients().items()}
        path = write(tmp_path / "p.json", {"n": 2, "m": 2, "lambda": 1, "kappa": 1,
                                           "parametrized": {
                                               "params": ["t"], "domain": [[0.5, 1.5]],
                                               "B": entries,
                                               "A": {"0": [["t", "0"], ["0", "1"]]}}})
        r = write(tmp_path / "r.json", pins(("B", 1, 1.0)))
        assert main(["generic", path, r, "--samples", "4", "--format", "json-report"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["invalid_reasons"] == {"eu_failed: DivisorExtractionSingular": 4}


# -- malformed input ---------------------------------------------------------


def param_model(**inner):
    spec = {"n": 1, "m": 1, "lambda": 0, "kappa": 1,
            "parametrized": {"params": ["a"], "domain": [[-0.5, 0.5]],
                             "B": {"0": "1", "1": "a"}, "A": {"0": "1"}}}
    spec["parametrized"].update(inner)
    return spec


class TestMalformedInput:
    """Each command that reads a malformed file exits 1 with exactly one
    ``error:`` line, which names the defect; no exception escapes main."""

    MODELS = {
        "string row": ({"n": 2, "m": 2, "lambda": 0, "kappa": 0,
                        "parametrized": {"params": ["a", "b", "c", "d"],
                                         "B": {"0": [[1, 0], [0, 1]]},
                                         "A": {"0": ["ab", "cd"]}}},
                       "A[0]: shape (2,) != (2, 2)"),
        "null scalar": (param_model(B={"0": "1", "1": None}), "B[1]: shape () != (1, 1)"),
        "null cell": (param_model(B={"0": [[None]]}),
                      "B[0][1][1]: entry must be a number or a string"),
        "lag key of a parametrized file": (param_model(B={"x": "1"}),
                                           "B lag key 'x' is not an integer"),
        "lag key of a numeric file": ({**ds_model(), "A": {"x": 1}},
                                      "A lag key 'x' is not an integer"),
        "lag twice in a numeric file": ({**ds_model(), "B": {"0": [[1.0]], "1": [[-0.5]],
                                                             "01": [[0.25]]}},
                                        "B lag 1 given twice (keys '1' and '01')"),
        "lag twice in a parametrized file": (param_model(B={"0": "1", "1": "a", "01": "0.25"}),
                                             "B lag 1 given twice (keys '1' and '01')"),
        "lag key repeated in a numeric file": (
            '{"n": 1, "m": 1, "lambda": 0, "kappa": 1, "A": {"0": [[1.0]]},'
            ' "B": {"0": [[1.0]], "1": [[-0.5]], "1": [[0.7]]}}',
            "B lag 1 given twice (keys '1' and '1')"),
        "lag key repeated in a parametrized file": (
            '{"n": 1, "m": 1, "lambda": 0, "kappa": 1, "parametrized": {"params": ["a"],'
            ' "B": {"0": "1", "1": "a", "1": "0.25"}, "A": {"0": "1"}}}',
            "B lag 1 given twice (keys '1' and '1')"),
        "signed lag key twice": ({**ds_model(), "A": {"0": [[1.0]], "+0": [[2.0]]}},
                                 "A lag 0 given twice (keys '0' and '+0')"),
        "non-integer n": ({**ds_model(), "n": "x"}, "n must be an integer, got 'x'"),
        "fractional kappa": ({**ds_model(), "kappa": 1.5}, "kappa must be an integer"),
        "negative lambda": ({**ds_model(), "lambda": -1}, "lambda and kappa at least 0"),
        "B as a list": ({**ds_model(), "B": [[1.0]]}, "B must be a JSON object"),
        "dict block": ({**ds_model(), "B": {"0": {"1": 1.0}}}, "B[0]: "),
        "ragged block": ({"n": 2, "m": 1, "lambda": 0, "kappa": 0,
                          "B": {"0": [[1, 0], [0]]}, "A": {"0": [[1], [1]]}}, "B[0]: "),
        "ragged domain": (param_model(domain=[[0, 1], [2]]), "domain: "),
        "params as a string": (param_model(params="a"), "params must be a JSON array"),
        "no kappa": ({k: v for k, v in ds_model().items() if k != "kappa"},
                     "missing required field 'kappa'"),
        "numeric parameter name": (param_model(params=[1]), "parameter names must be strings"),
        "parameter named twice": (param_model(params=["a", "a"], domain=[[0, 1], [0, 1]]),
                                  "duplicate parameter names"),
        "domain of two boxes": (param_model(domain=[[0, 1], [2, 3]]),
                                "domain has 4 bounds for 1 parameters, expected one [lo, hi] "
                                "box each"),
        "domain with lo > hi": (param_model(domain=[[1, 0]]),
                                "domain bounds must be finite with lo <= hi"),
        "NUL in an entry": (param_model(A={"0": "1\u0000"}),
                            "A[0][1][1]: unexpected character '\\x00' at line 1, column 2"),
        "unfinished entry": ({"n": 1, "m": 1, "lambda": 1, "kappa": 1,
                              "parametrized": {"params": ["a"], "B": {"-1": "a +", "0": "1"},
                                               "A": {"0": "1"}}},
                             "B[-1][1][1]: unexpected 'end of input' at line 1, column 4"),
    }

    RESTRICTIONS = {
        "ragged R": ({"R": [[1, 0, 0, 0], [1]], "u": [1, 1]}, "R: "),
        "nonlinear as a string": ({"nonlinear": "1"}, "nonlinear must be a JSON array"),
        "pins as an object": ({"pins": {"block": "B"}}, "pins must be a JSON array"),
        "non-integer equation": ({"equation": "x", **pins(("B", 0, 1.0))},
                                 "equation must be an integer"),
        "reference out of range": ({"nonlinear": ["B[3][1][1] - 1"]},
                                   "B[3][1][1]: B lag 3 outside 0..1"),
        "pin lag out of range": (pins(("B", 0, 1.0), ("A", 2, 1.0)),
                                 "pin #2: A lag 2 outside 0..1"),
        "reference twice": ({"nonlinear": ["B[0][1][1] B[0][1][1]"]},
                            "unexpected 'B[0][1][1]' at line 1, column 12"),
        "undeclared name": ({"nonlinear": ["B[0][1][1] - _B_0_1_1"]},
                            "unknown identifier '_B_0_1_1'"),
        "syntax error": ({"nonlinear": ["B[0][1][1] + * 2"]},
                         "unexpected '*' at line 1, column 14"),
        "NaN pin value": (pins(("B", 0, float("nan"))), "pin #1: value must be finite"),
        "infinite pin value": (pins(("B", 0, 1.0), ("B", 1, float("-inf"))),
                               "pin #2: value must be finite"),
        "fractional pin lag": (pins(("B", 1.5, 1.0)), "pin #1: lag must be an integer, got 1.5"),
        "fractional pin row": (one_pin(row=1.9), "pin #1: row must be an integer, got 1.9"),
        "string pin row": (one_pin(row="1"), "pin #1: row must be an integer, got '1'"),
        "boolean pin col": (one_pin(col=True), "pin #1: col must be an integer, got True"),
        "boolean pin value": (pins(("B", 0, 1.0), ("B", 1, True)),
                              "pin #2: value must be a number, got True"),
        "string pin value": (pins(("B", 0, "1")), "pin #1: value must be a number, got '1'"),
        "pin without a value": (one_pin(value=None), "pin #1: 'value'"),
        "first of two faulty pins": (pins(("B", 2, 1.0), ("B", 0.5, 1.0)),
                                     "pin #1: B lag 2 outside 0..1"),
        "pin block C": (one_pin(block="C"), "pin #1: block must be 'B' or 'A'"),
        "pin lag beyond int64": (pins(("B", 10**30, 1.0)),
                                 f"pin #1: B lag {10**30} outside 0..1"),
        "pin value beyond the floats": (pins(("B", 0, 10**400)), "pin #1: value must be finite"),
        "numeric expression": ({"nonlinear": [1]}, "nonlinear restrictions must be strings"),
        "equation beyond n": ({"equation": 2, **pins(("B", 0, 1.0))},
                              "equation index 2 outside 1..1"),
        "no restriction kind": ({}, "restriction file needs exactly one of: pins, R, nonlinear"),
        "R and u of other lengths": ({"R": [[1, 0, 0, 0]], "u": [1.0, 2.0]},
                                     "R and u row counts differ"),
        "no pins": ({"pins": []}, "the restriction set is empty"),
        "no equation pins": ({"equation": 1, "pins": []}, "the restriction set is empty"),
        "no expressions": ({"nonlinear": []}, "the restriction set is empty"),
    }

    def assert_file_error(self, capsys, argv, fragment):
        code = main(argv)
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert (code, len(lines)) == (1, 1), (argv[0], err)
        assert fragment in lines[0], (argv[0], lines[0])

    @pytest.mark.parametrize("case", MODELS)
    def test_model_file(self, tmp_path, capsys, case):
        spec, fragment = self.MODELS[case]
        path = write(tmp_path / "m.json", spec)
        good = write(tmp_path / "good.json", ds_model())
        r = write(tmp_path / "r.json", pins(("B", 0, 1.0)))
        for argv in (["factorize", path], ["solve", path], ["spectrum", path],
                     ["simulate", path], ["equiv", path, good], ["ident", path, r],
                     ["local", path, r], ["generic", path, r]):
            self.assert_file_error(capsys, argv, fragment)

    @pytest.mark.parametrize("case", RESTRICTIONS)
    def test_restriction_file(self, tmp_path, capsys, case):
        spec, fragment = self.RESTRICTIONS[case]
        r = write(tmp_path / "r.json", spec)
        model = write(tmp_path / "m.json", ds_model())
        param = write(tmp_path / "p.json", param_model())
        for argv in (["ident", model, r], ["local", model, r], ["generic", param, r]):
            self.assert_file_error(capsys, argv, fragment)

    @pytest.mark.parametrize("argv", [["solve", "P", "--theta", "0.1,0.2"],
                                      ["generic", "P", "R", "--probe", "0.1,0.2"]])
    def test_theta_of_the_wrong_length(self, tmp_path, capsys, argv):
        param = write(tmp_path / "p.json", param_model())
        r = write(tmp_path / "r.json", pins(("B", 0, 1.0)))
        argv = [{"P": param, "R": r}.get(a, a) for a in argv]
        self.assert_file_error(capsys, argv, "theta must have 1 entries")


class TestWarningLines:
    """A library UserWarning prints as one ``warning: <message>`` line on
    standard error, once per message, in both formats; standard output is
    the report alone."""

    @pytest.mark.parametrize("fmt", ["text", "json-report"])
    def test_dependent_rows_and_zero_u(self, tmp_path, capsys, fmt):
        path = write(tmp_path / "m.json", ds_model())
        r = write(tmp_path / "r.json", pins(("B", 0, 0.0), ("B", 0, 0.0)))
        assert main(["ident", path, r, "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "warning: restriction rows are linearly dependent (row rank 1 of 2)",
            "error: u = 0 is meaningless: the whole scale direction satisfies it"]

    @pytest.mark.parametrize("fmt", ["text", "json-report"])
    def test_theta_outside_the_box_once(self, tmp_path, capsys, fmt):
        path = write(tmp_path / "p.json", param_model())
        r = write(tmp_path / "r.json", pins(("B", 0, 1.0)))
        # B(z) = 1 + a z fails existence/uniqueness at both: two draws, two warnings
        main(["generic", path, r, "--probe", "2", "--probe", "3", "--samples", "0",
              "--format", fmt])
        captured = capsys.readouterr()
        assert captured.err == "warning: theta outside the declared domain box\n"
        if fmt == "json-report":
            assert len(captured.out.splitlines()) == 1
            assert json.loads(captured.out)["samples_drawn"] == 2


    def test_other_warnings_pass_through(self, tmp_path, capsys, monkeypatch):
        from ratex import cli

        def solve_and_warn(*args, **kwargs):
            warnings.warn("planted", FutureWarning)
            return solve_model(*args, **kwargs)

        solve_model = cli.solve_model
        monkeypatch.setattr(cli, "solve_model", solve_and_warn)
        with pytest.warns(FutureWarning, match="planted"):
            assert main(["solve", write(tmp_path / "m.json", ds_model())]) == 0
        assert "planted" not in capsys.readouterr().err


def overflow_model(scale=1e308):
    """B = 1 - 0.99 z, A = scale (1 + z): at 1e308, C_1 = 1.99e308 overflows."""
    return {"n": 1, "m": 1, "lambda": 0, "kappa": 1,
            "B": {"0": 1.0, "1": -0.99}, "A": {"0": scale, "1": scale}}


def no_constants(text):
    """json.loads that fails on the Infinity and NaN json.dumps writes for
    non-finite floats."""
    def refuse(name):
        raise AssertionError(f"{name} in a json-report line")

    return json.loads(text, parse_constant=refuse)


class TestNonFiniteSolution:
    """A solution whose coefficients are not all finite (the stationary
    solution's are) is a solve failure, exit 2, through every command that
    solves: one ``solve failed:`` line, no Infinity or NaN in a report and
    no numpy RuntimeWarning on standard error."""

    def run(self, capsys, argv):
        """main's exit code and output; it issues no RuntimeWarning, which
        outside the tests would print to standard error."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert [w.category for w in caught if issubclass(w.category, RuntimeWarning)] == []
        return code, capsys.readouterr()

    @pytest.mark.parametrize("command, scale", [
        (command, 1e308) for command in ("solve", "ident", "local", "equiv", "simulate")] + [
        # finite C_j near the largest float overflow the rank tests' kernel basis,
        # the spectral density and the simulated path
        (command, 8.7e307) for command in ("ident", "local", "equiv", "simulate")] + [
        # the horizon-0 solve keeps only C_0 = 1e308; its density overflows
        ("spectrum", 1e308)] + [
        # each oracle alone: the kernel oracle's scale max|xi| * max|P| overflows
        (command, 8.7e307) for command in ("equiv-kernel", "equiv-spectral")])
    def test_exit_2_with_one_line(self, tmp_path, capsys, command, scale):
        reason = "solution is not all finite: B_plus(0) is singular or its numbers overflow"
        path = write(tmp_path / "m.json", overflow_model(scale))
        r = write(tmp_path / "r.json", pins(("B", 0, 1.0)))
        argv = {"solve": ["solve", path], "ident": ["ident", path, r],
                "local": ["local", path, r], "equiv": ["equiv", path, path],
                "equiv-kernel": ["equiv", path, path, "--oracle", "kernel"],
                "equiv-spectral": ["equiv", path, path, "--oracle", "spectral"],
                "simulate": ["simulate", path, "--T", "5"],
                "spectrum": ["spectrum", path, "--grid", "2"]}[command]
        code, captured = self.run(capsys, argv)
        lines = (captured.out + captured.err).splitlines()
        assert code == 2
        assert lines == [f"solve failed: {reason}"]
        if command not in ("simulate", "spectrum"):
            code, captured = self.run(capsys, argv + ["--format", "json-report"])
            payload = no_constants(captured.out)
            assert (code, payload["verdict"], captured.err) == (2, "solve_failed", "")
            assert payload["reason"] == reason

    def test_generic_marks_the_failing_draws(self, tmp_path, capsys):
        path = write(tmp_path / "p.json", {
            "n": 1, "m": 1, "lambda": 0, "kappa": 1,
            "parametrized": {"params": ["t"], "B": {"0": "1", "1": "-0.99"},
                             "A": {"0": "t*1e308", "1": "t*1e308"}}})
        r = write(tmp_path / "r.json", pins(("B", 0, 1.0)))
        with warnings.catch_warnings():
            # identcore.p_norm squares the draws' entries past the largest
            # float and warns (CHANGES.md FOUND)
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["generic", path, r, "--format", "json-report"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        payload = no_constants(lines[0])
        assert payload["exit_code"] == code and code in (0, 3, 4)
        assert payload["samples_drawn"] == 64
        assert payload["invalid_reasons"]["eu_failed: SingularMatrixError"] > 0


def bound_model(params=False):
    """A VARMA(1, 1) with n = m = 2 and kappa = 1, so its Hankel rank is at
    most n * kappa = 2; ``params`` makes B_1's diagonal the parameters."""
    b1 = [["b11", 0.1], [0.2, "b22"]] if params else [[-0.5, 0.1], [0.2, -0.3]]
    blocks = {"B": {"0": [[1, 0], [0, 1]], "1": b1},
              "A": {"0": [[1, 0], [0.3, 1]], "1": [[0.2, 0.1], [-0.1, 0.4]]}}
    head = {"n": 2, "m": 2, "lambda": 0, "kappa": 1}
    if params:
        return {**head, "parametrized": {"params": ["b11", "b22"],
                                         "domain": [[-0.6, -0.4], [-0.4, -0.2]], **blocks}}
    return {**head, **blocks}


class TestHankelRankBound:
    """A --tol-rank below the rounding in the impulse responses counts a
    Hankel rank above its bound n * kappa, which would leave the kernel
    basis N no columns: ident and local exit 1 naming the rank and the
    bound, and generic marks every such draw invalid."""

    def files(self, tmp_path):
        r = write(tmp_path / "r.json", {"pins": [
            {"block": "B", "lag": 0, "row": i, "col": j, "value": float(i == j)}
            for i in (1, 2) for j in (1, 2)] + [
            {"block": "A", "lag": 0, "row": 1, "col": 2, "value": 0.0}]})
        return (write(tmp_path / "m.json", bound_model()),
                write(tmp_path / "p.json", bound_model(params=True)), r)

    @pytest.mark.parametrize("tol", ["0", "1e-300"])
    def test_rank_above_the_bound(self, tmp_path, capsys, tol):
        path, param, r = self.files(tmp_path)
        for command in ("ident", "local"):
            assert main([command, path, r, "--tol-rank", tol]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert re.fullmatch(rf"error: Hankel rank [34] exceeds its bound n\*kappa = 2 "
                                rf"at --tol-rank {tol}; raise --tol-rank\n", err)
        assert main(["generic", param, r, "--tol-rank", tol, "--format", "json-report"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["invalid_reasons"] == {"hankel_rank_above_bound": 64}

    @pytest.mark.parametrize("tol", ["1e-17", "1e-10"])
    def test_identified_at_a_workable_tolerance(self, tmp_path, capsys, tol):
        path, param, r = self.files(tmp_path)
        for argv, verdict in ((["ident", path, r], "identified"),
                              (["local", path, r], "identified"),
                              (["generic", param, r], "generically_identified")):
            assert main([*argv, "--tol-rank", tol, "--format", "json-report"]) == 0
            assert json.loads(capsys.readouterr().out)["verdict"] == verdict

    @settings(max_examples=25, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 1),
                          st.integers(0, 2)),
           seed=st.integers(0, 2**32 - 1),
           tol=st.sampled_from(["0", "1e-300", "1e-17", "1e-10", "1e-2"]))
    def test_every_tolerance_gives_an_exit_code(self, tmp_path, capsys, dims, seed, tol):
        """Factored models with B_0 pinned: ident, local and generic return
        a code in 0-4 and raise nothing, and a json-report line holds no
        NaN or Infinity, whatever the rank tolerance."""
        from conftest import make_valid_model

        n, m, lam, kappa = dims
        model, *_ = make_valid_model(np.random.default_rng(seed), n=n, m=min(m, n),
                                     lam=lam, kappa=kappa)
        spec = numeric_spec(model)
        path = write(tmp_path / "m.json", spec)
        # A_0's first entry scaled by 1 + t, t small: the draws stay valid
        a0 = [[repr(v) for v in row] for row in spec["A"]["0"]]
        a0[0][0] = f"{a0[0][0]} * (1 + t)"
        param = write(tmp_path / "p.json", {
            **{k: spec[k] for k in ("n", "m", "lambda", "kappa")},
            "parametrized": {"params": ["t"], "domain": [[-1e-3, 1e-3]], "B": spec["B"],
                             "A": {**spec["A"], "0": a0}}})
        r = write(tmp_path / "r.json", {"pins": [
            {"block": "B", "lag": 0, "row": i + 1, "col": j + 1, "value": v}
            for i, row in enumerate(spec["B"]["0"]) for j, v in enumerate(row)]})
        for argv in (["ident", path, r], ["local", path, r],
                     ["generic", param, r, "--samples", "4"]):
            code = main([*argv, "--tol-rank", tol, "--format", "json-report"])
            out = capsys.readouterr().out
            assert code in range(5)
            if code != 1:
                assert no_constants(out)["exit_code"] == code


def coefficient_refs(model, picks):
    """(block, lag, 1-based row, 1-based col, value) of the coefficients of
    ``picks``, (block, lag, 0-based row, 0-based col) each, at the model."""
    return [(b, lag, i + 1, j + 1, float((model.B if b == "B" else model.A).coefficient(lag)[i, j]))
            for b, lag, i, j in picks]


def restriction_forms(model, refs, equation=None):
    """The same restrictions coefficient = value as a pin file, a dense R
    file and an expression file."""
    n, m, lam, kappa = model.n, model.m, model.lam, model.kappa
    head = {} if equation is None else {"equation": equation}
    R = np.zeros((len(refs), coeff_vec_length(n, m, kappa, lam, equation=equation is not None)))
    for k, (b, lag, i, j, _) in enumerate(refs):
        R[k, coeff_vec_index(b, lag, i - 1, j - 1, n, m, kappa, lam, equation is not None)] = 1.0
    return ({**head, "pins": [{"block": b, "lag": lag, "row": i, "col": j, "value": v}
                              for b, lag, i, j, v in refs]},
            {**head, "R": R.tolist(), "u": [v for *_, v in refs]},
            {**head, "nonlinear": [f"{b}[{lag}][{i}][{j}] - {v!r}" for b, lag, i, j, v in refs]})


class TestRestrictionsStaySparse:
    """Pins, R files and compiled expressions reach the rank kernels as
    their entries: no command forms a dense restriction matrix, and the
    three forms of one set of restrictions give one result."""

    def test_all_b_pinned_stays_under_a_quarter_of_a_dense_r(self, tmp_path, capsys):
        """(16, 8, 1, 2) with every B coefficient restricted: 1024 rows on
        1408 coefficients, whose dense R would take 11.5 MB."""
        import tracemalloc

        from conftest import make_valid_model

        model, *_ = make_valid_model(np.random.default_rng(0), n=16, m=8, lam=1, kappa=2)
        path = write(tmp_path / "m.json", numeric_spec(model))
        refs = coefficient_refs(model, [("B", lag, i, j) for lag in range(-1, 3)
                                        for j in range(16) for i in range(16)])
        pin_file, _, expr_file = restriction_forms(model, refs)
        dense_bytes = len(refs) * 1408 * 8
        for argv in (["ident", path, write(tmp_path / "pins.json", pin_file)],
                     ["local", path, write(tmp_path / "exprs.json", expr_file)]):
            tracemalloc.start()
            try:
                code = main([*argv, "--format", "json-report"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (code, json.loads(capsys.readouterr().out)["verdict"]) == (0, "identified")
            assert peak < dense_bytes / 4, (argv[0], peak)

    @settings(max_examples=30, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dims=st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(0, 1),
                          st.integers(0, 1)),
           equation=st.booleans(), count=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_pins_dense_r_and_expressions_agree(self, tmp_path, capsys, dims, equation,
                                                count, seed):
        """Factored models with coefficients restricted at their values:
        the pin file, the dense R file and the expression file give the
        same verdict, rank and bitwise singular values through ``ident``
        (pins and R) and ``local`` (all three)."""
        from conftest import make_valid_model

        n, m, lam, kappa = dims
        rng = np.random.default_rng(seed)
        model, *_ = make_valid_model(rng, n=n, m=min(m, n), lam=lam, kappa=kappa)
        row = int(rng.integers(n)) if equation else None
        picks = []
        for _ in range(count):
            b = "B" if rng.random() < 0.7 else "A"
            lag = int(rng.integers(-lam if b == "B" else 0, kappa + 1))
            i = row if equation else int(rng.integers(n))
            picks.append((b, lag, i, int(rng.integers(n if b == "B" else model.m))))
        forms = restriction_forms(model, coefficient_refs(model, picks),
                                  None if row is None else row + 1)
        path = write(tmp_path / "m.json", numeric_spec(model))
        files = [write(tmp_path / f"r{k}.json", form) for k, form in enumerate(forms)]
        results = []
        for argv in (["ident", path, files[0]], ["ident", path, files[1]],
                     ["local", path, files[0]], ["local", path, files[1]],
                     ["local", path, files[2]]):
            code = main([*argv, "--format", "json-report"])
            payload = json.loads(capsys.readouterr().out)
            results.append((code, payload["verdict"], payload["numerical_rank"],
                            payload["singular_values"]))
        assert all(result == results[0] for result in results), results
