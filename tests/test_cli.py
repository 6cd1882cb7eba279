import csv
import json

import numpy as np
import pytest

from ratex.cli import main
from ratex.identcore import RestrictionSet
from ratex.modelio import (
    ModelFileError,
    compile_nonlinear,
    load_model_file,
    model_from_dict,
    restrictions_from_dict,
)
from ratex.paramdsl import ParamMap
from ratex.polylab import Model


def write(path, obj):
    path.write_text(json.dumps(obj))
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
        assert res.R.shape == (2, 5)
        assert res.R[0].tolist() == [1, 0, 0, 0, 0]
        assert res.R[1].tolist() == [0, 0, 0, 1, 0]
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
        assert res.R.shape == (1, 2 * 2 + 1 * 2)

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

    def test_dependent_rows_warn(self):
        with pytest.warns(UserWarning):
            restrictions_from_dict({"R": [[1, 0, 0, 0, 0], [2, 0, 0, 0, 0]],
                                    "u": [1.0, 2.0]}, n=1, m=1, kappa=1, lam=1)

    def test_wrong_width_rejected(self):
        with pytest.raises(ModelFileError):
            restrictions_from_dict({"R": [[1, 0]], "u": [1.0]}, n=1, m=1, kappa=1, lam=1)


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


class TestMisc:
    def test_env_var_overrides_rank_tolerance(self, tmp_path, capsys, monkeypatch):
        # an absurdly large tolerance makes every matrix look rank deficient
        monkeypatch.setenv("RATEX_TOL_RANK", "1e6")
        spec = {"n": 1, "m": 1, "lambda": 1, "kappa": 1,
                "B": {"-1": [[0.2]], "0": [[1.1]], "1": [[0.3]]},
                "A": {"0": [[1.0]], "1": [[0.4]]}}
        path = write(tmp_path / "m.json", spec)
        r = write(tmp_path / "r.json", {"pins": [
            {"block": "B", "lag": -1, "row": 1, "col": 1, "value": 0.2},
            {"block": "A", "lag": 0, "row": 1, "col": 1, "value": 1.0}]})
        assert main(["ident", path, r]) == 3
        monkeypatch.delenv("RATEX_TOL_RANK")
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
