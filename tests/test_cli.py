import contextlib
import io
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kyfan.cli import main, matrix_json, parse_matrix_obj, parse_norm_spec
from kyfan.errors import ParseError
from kyfan.norms import NormSpec


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")

    def w(name, obj):
        p = d / name
        p.write_text(json.dumps(obj))
        return str(p)

    out = {
        "diag31": w("diag31.json", {"rows": 2, "cols": 2, "data": [3, 0, 0, 1]}),
        "a3": w("a3.json", {"rows": 3, "cols": 3,
                            "data": [3, 0, 0, 0, 1, 0, 0, 0, 0]}),
        "ce_a": w("ce_a.json", {"rows": 3, "cols": 3,
                                "data": [0.5, 0, 0, 0, 2, 0, 0, 0, 0]}),
        "x011": w("x011.json", {"rows": 3, "cols": 3,
                                "data": [0, 0, 0, 0, 1, 0, 0, 0, 1]}),
        "eye2": w("eye2.json", {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}),
        "sub_i3": w("sub_i3.json", {"field": "complex", "basis": [
            {"rows": 3, "cols": 3, "data": [1, 0, 0, 0, 1, 0, 0, 0, 1]}]}),
        "eye2_sub": w("eye2_sub.json", {"field": "complex", "basis": [
            {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}]}),
        "sub_x": w("sub_x.json", {"field": "complex", "basis": [
            {"rows": 3, "cols": 3, "data": [0, 0, 0, 0, 1, 0, 0, 0, 1]}]}),
        "pairs": w("pairs.json", {"rows": 2, "cols": 1, "data": [[1, 2], [3, 4]]}),
        "badlen": w("badlen.json", {"rows": 2, "cols": 2, "data": [1, 0, 0]}),
        "badjson": w("badjson.json", None),
        "nobasis": w("nobasis.json", {"field": "real"}),
        "depbasis": w("depbasis.json", {"field": "complex", "basis": [
            {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]},
            {"rows": 2, "cols": 2, "data": [2, 0, 0, 2]}]}),
        "dir": str(d),
    }
    (d / "badjson.json").write_text("{not json")
    return out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- parsing ------------------------------------------------------------------


def test_parse_matrix_flat_scalars():
    m = parse_matrix_obj({"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}, "t")
    assert np.allclose(m, np.eye(2))


def test_parse_matrix_flat_pairs():
    m = parse_matrix_obj({"rows": 2, "cols": 1, "data": [[1, 2], [3, 4]]}, "t")
    assert m[0, 0] == 1 + 2j and m[1, 0] == 3 + 4j


def test_parse_matrix_nested_rows_preferred_when_square():
    # for a 2x2, [[1,2],[3,4]] reads as nested real rows, not two pairs
    m = parse_matrix_obj({"rows": 2, "cols": 2, "data": [[1, 2], [3, 4]]}, "t")
    assert np.allclose(m, np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_parse_matrix_nested_with_pairs():
    m = parse_matrix_obj({"rows": 1, "cols": 2, "data": [[[1, 2], 5]]}, "t")
    assert m[0, 0] == 1 + 2j and m[0, 1] == 5


def test_parse_matrix_errors():
    with pytest.raises(ParseError):
        parse_matrix_obj({"rows": 2, "cols": 2, "data": [1, 0, 0]}, "t")
    with pytest.raises(ParseError):
        parse_matrix_obj({"rows": 2, "cols": 2}, "t")
    with pytest.raises(ParseError):
        parse_matrix_obj({"rows": 0, "cols": 2, "data": []}, "t")
    with pytest.raises(ParseError):
        parse_matrix_obj([1, 2], "t")
    with pytest.raises(ParseError):
        parse_matrix_obj({"rows": 1, "cols": 2, "data": [[1, "x"]]}, "t")


def test_parse_norm_specs():
    assert parse_norm_spec("kyfan:p=3,k=2") == NormSpec.kyfan(3, 2)
    assert parse_norm_spec("spectral") == NormSpec.spectral()
    assert parse_norm_spec("schatten:p=4") == NormSpec.schatten(4)
    assert parse_norm_spec("trace") == NormSpec.trace()
    for bad in ("kyfan:p=3", "kyfan:p=3,k=2.5", "schatten", "banana",
                "kyfan:p=x,k=1", "spectral:p=2"):
        with pytest.raises(ParseError):
            parse_norm_spec(bad)


def test_matrix_json_round_trip():
    m = np.array([[1 + 2j, 0], [0.5, -1j]])
    back = parse_matrix_obj(matrix_json(m), "t")
    assert np.array_equal(back, m)


# --- exit codes ---------------------------------------------------------------


def test_norm_example_exact_output(capsys, files):
    code, out, _ = run(capsys, "norm", "--matrix", files["diag31"],
                       "--norm", "kyfan:p=2,k=1")
    assert code == 0
    assert out == '{"value": 3.0}\n'


def test_unknown_subcommand_exits_2(capsys, files):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--matrix", files["diag31"]])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2(files):
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--matrix", files["diag31"]])
    assert exc.value.code == 2


def test_parse_failures_exit_2(capsys, files):
    for argv in (
        ["norm", "--matrix", files["badlen"], "--norm", "spectral"],
        ["norm", "--matrix", files["badjson"], "--norm", "spectral"],
        ["norm", "--matrix", files["dir"] + "/missing.json", "--norm", "spectral"],
        ["norm", "--matrix", files["diag31"], "--norm", "kyfan:p=0.5,k=1"],
        ["approx", "--matrix", files["diag31"], "--subspace", files["nobasis"],
         "--norm", "spectral"],
        ["approx", "--matrix", files["diag31"], "--subspace", files["depbasis"],
         "--norm", "spectral"],
        ["subdiff", "--matrix", files["diag31"], "--norm", "trace"],  # p < 2
        ["approx", "--matrix", files["a3"], "--subspace", files["sub_x"],
         "--norm", "kyfan:p=2,k=9"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv
        assert out == "", argv


def test_tol_only_on_ortho_commands(capsys, files):
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--matrix", files["diag31"], "--norm", "spectral", "--tol", "1e-3"])
    assert exc.value.code == 2
    code, _, _ = run(capsys, "ortho", "bj", "--matrix", files["eye2"], "--other",
                     files["eye2"], "--norm", "spectral", "--tol", "1e-3")
    assert code == 0


def test_invalid_tolerance_exits_2(capsys, files, tmp_path):
    # diag(3, 1) is not orthogonal to E12 in the spectral norm; a NaN or
    # negative tolerance used to pass through and print a "refuting" lambda
    # that raises the norm
    e12 = tmp_path / "e12.json"
    e12.write_text(json.dumps({"rows": 2, "cols": 2, "data": [0, 1, 0, 0]}))
    for tol in ("nan", "-1", "inf"):
        for argv in (["ortho", "bj", "--other", str(e12), "--tol", tol],
                     ["ortho", "eps", "--other", str(e12), "--eps", "0.1", "--tol", tol],
                     ["ortho", "eps", "--other", str(e12), "--eps", "0.1", "--mode", "real",
                      "--tol", tol],
                     ["ortho", "parallel", "--other", str(e12), "--tol", tol],
                     ["ortho", "subspace", "--subspace", files["eye2_sub"], "--tol", tol],
                     ["approx", "--certify", "--subspace", files["eye2_sub"], "--cert-tol", tol]):
            code, out, err = run(capsys, *argv, "--matrix", files["diag31"], "--norm", "spectral")
            assert code == 2, (tol, argv)
            assert "must be finite and >= 0" in err and out == "", (tol, argv)


def test_spectral_limit_norm_uses_the_2_1_subdifferential(capsys, files):
    # p beyond P_CAP is the spectral norm, whose subdifferential is the (2, 1) one
    code, out, _ = run(capsys, "subdiff", "--matrix", files["diag31"],
                       "--norm", "kyfan:p=1e7,k=2")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 2.0 and payload["k"] == 1
    outs = []
    for spec in ("kyfan:p=1e7,k=2", "spectral"):
        code, out, _ = run(capsys, "ortho", "bj", "--matrix", files["a3"],
                           "--other", files["x011"], "--norm", spec)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] and json.loads(outs[0])["orthogonal"] is True


def test_kyfan_p1_k1_runs_every_command_as_the_spectral_norm(capsys, files):
    # kyfan(1, 1) is sigma_1: every command resolves it to (2, 1), and prints
    # what the spectral norm prints
    for argv in (["subdiff"], ["dirderiv", "--direction", files["x011"]],
                 ["ortho", "bj", "--other", files["x011"]],
                 ["ortho", "eps", "--other", files["x011"], "--eps", "0.1"],
                 ["ortho", "parallel", "--other", files["x011"]],
                 ["ortho", "subspace", "--subspace", files["sub_x"]],
                 ["approx", "--certify", "--subspace", files["sub_x"], "--starts", "4"]):
        outs = []
        for spec in ("kyfan:p=1,k=1", "spectral"):
            code, out, err = run(capsys, *argv, "--matrix", files["a3"], "--norm", spec)
            assert code == 0, (argv, spec, err)
            outs.append(out)
        assert outs[0] == outs[1], argv
        payload = json.loads(outs[0])
        if argv[0] == "subdiff":
            assert payload["p"] == 2.0 and payload["k"] == 1
        if argv[:2] == ["ortho", "subspace"]:
            assert payload["verified"] is True


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 10 ** 400],
                         ids=["nan", "inf", "-inf", "int1e400"])
@pytest.mark.parametrize("command", [["norm"], ["dual"], ["ortho", "bj"]],
                         ids=["norm", "dual", "ortho-bj"])
def test_nonfinite_entries_exit_2(capsys, files, tmp_path, command, bad):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"rows": 2, "cols": 2, "data": [1, bad, 0, 1]}))
    argv = command + ["--matrix", str(p), "--norm", "kyfan:p=2,k=1"]
    if command == ["ortho", "bj"]:
        argv += ["--other", files["eye2"]]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "finite" in err
    assert out == ""


def _matrix3(rows):
    return {"rows": 3, "cols": 3, "data": [float(v) for row in rows for v in row]}


def test_forced_nonconvergence_exits_3(capsys, tmp_path):
    # the trace norm (p < 2) has no bracket and a dim-3 subspace no grid
    # rescue, so two starts that end apart cannot converge
    a = tmp_path / "a.json"
    a.write_text(json.dumps(_matrix3([[2, 1, 0], [-2, -1, -3], [-3, -3, -2]])))
    p = tmp_path / "sub3.json"
    p.write_text(json.dumps({"field": "complex", "basis": [_matrix3(b) for b in (
        [[2, 1, 2], [0, 1, 2], [1, 1, 0]], [[0, 2, -1], [2, 1, -2], [-1, 2, 0]],
        [[-2, 1, 1], [2, -2, -2], [2, -2, 0]])]}))
    code, out, _ = run(capsys, "approx", "--matrix", str(a), "--subspace", str(p),
                       "--norm", "trace", "--starts", "2", "--max-iter", "1")
    assert code == 3
    payload = json.loads(out)
    assert payload["flags"] and not payload["converged"]
    assert "value" in payload  # partial result still emitted
    code, out, _ = run(capsys, "strict", "--matrix", str(a), "--subspace", str(p))
    assert code == 0 and json.loads(out)["converged"]


@pytest.mark.parametrize("scale", [1e-200, 1e-300])
def test_strict_underflowing_matrix_prints_json(capsys, files, tmp_path, scale):
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps({"rows": 3, "cols": 3,
                             "data": [3 * scale, 0, 0, 0, scale, 0, 0, 0, 0]}))
    code, out, _ = run(capsys, "strict", "--matrix", str(p), "--subspace", files["sub_i3"],
                       "--starts", "4")
    payload = json.loads(out)
    assert code == (3 if payload["flags"] else 0)
    assert len(payload["sigma"]) == 3 and payload["values"][0] == payload["sigma"][0] > 0.0


def test_zero_residual_converges_in_one_iteration(capsys, files, tmp_path):
    # A = diag(3, 1, 0) lies in the diagonal subspace: the least-squares start
    # reaches residual 0, where the bracket [0, 0] proves optimality
    p = tmp_path / "diag3.json"
    basis = []
    for i in range(3):
        m = np.zeros((3, 3))
        m[i, i] = 1.0
        basis.append(_matrix3(m))
    p.write_text(json.dumps({"field": "complex", "basis": basis}))
    code, out, _ = run(capsys, "strict", "--matrix", files["a3"],
                       "--subspace", str(p), "--starts", "2", "--max-iter", "1")
    payload = json.loads(out)
    assert code == 0 and payload["converged"] and payload["flags"] == []
    assert payload["values"] == [0.0, 0.0, 0.0]


# --- subcommand payloads --------------------------------------------------------


def test_dual_output(capsys, files):
    code, out, _ = run(capsys, "dual", "--matrix", files["eye2"], "--norm", "spectral")
    assert code == 0
    assert json.loads(out) == {"value": 2.0}


def reject(token):
    raise ValueError("non-standard JSON constant %s" % token)


def test_dual_of_huge_matrix_is_finite_json(capsys, tmp_path):
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"rows": 2, "cols": 2, "data": [1e300, 0, 0, 5e299]}))
    for spec in ("kyfan:p=1.5,k=2", "schatten:p=3"):
        code, out, _ = run(capsys, "dual", "--matrix", str(p), "--norm", spec)
        assert code == 0
        value = json.loads(out, parse_constant=reject)["value"]
        assert np.isfinite(value) and value > 1e300, spec


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # entries near the float limit overflow
def test_ortho_subspace_huge_matrix_prints_strict_json(capsys, files, tmp_path):
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"rows": 2, "cols": 2, "data": [1e300, 0, 0, 5e299]}))
    code, out, _ = run(capsys, "ortho", "subspace", "--matrix", str(p),
                       "--subspace", files["eye2_sub"], "--norm", "kyfan:p=2,k=2")
    assert code == 0
    payload = json.loads(out, parse_constant=reject)
    assert payload["residual_eig"] is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # entries near the float limit overflow
def test_approx_linalg_failure_exits_3(capsys, files, tmp_path):
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"rows": 2, "cols": 2, "data": [1e300, 0, 0, 5e299]}))
    code, out, err = run(capsys, "approx", "--matrix", str(p),
                         "--subspace", files["eye2_sub"], "--norm", "kyfan:p=2,k=2")
    assert code == 3
    assert err.startswith("error:") and "linear algebra" in err
    assert out == ""


def test_subdiff_payload_round_trips(capsys, files):
    code, out, _ = run(capsys, "subdiff", "--matrix", files["diag31"],
                       "--norm", "kyfan:p=2,k=1", "--samples", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["singleton"] and not payload["at_zero"]
    assert payload["boundary"] is None
    assert [b["multiplicity"] for b in payload["blocks"]] == [1, 1]
    g = parse_matrix_obj(payload["extreme_points"][0], "g")
    assert np.allclose(g, np.diag([1.0, 0.0]))
    pf = parse_matrix_obj(payload["prefactor"], "pf")
    assert pf.shape == (2, 2)


def test_subdiff_degenerate_boundary(capsys, files):
    code, out, _ = run(capsys, "subdiff", "--matrix", files["eye2"],
                       "--norm", "kyfan:p=2,k=1", "--samples", "2")
    payload = json.loads(out)
    assert code == 0 and not payload["singleton"]
    assert payload["boundary"]["dim"] == 2 and payload["boundary"]["required"] == 1
    assert len(payload["extreme_points"]) == 2


def test_dirderiv_value(capsys, files):
    code, out, _ = run(capsys, "dirderiv", "--matrix", files["diag31"],
                       "--direction", files["eye2"], "--norm", "kyfan:p=2,k=1")
    assert code == 0
    assert abs(json.loads(out)["value"] - 1.0) <= 1e-12


def test_ortho_bj_verdicts(capsys, files):
    code, out, _ = run(capsys, "ortho", "bj", "--matrix", files["eye2"],
                       "--other", files["eye2"], "--norm", "kyfan:p=2,k=1")
    assert code == 0
    payload = json.loads(out)
    assert payload["orthogonal"] is False
    assert payload["refuting_norm"] < 1.0
    assert len(payload["refuting_lambda"]) == 2

    code, out, _ = run(capsys, "ortho", "bj", "--matrix", files["a3"],
                       "--other", files["x011"], "--norm", "kyfan:p=2,k=1")
    payload = json.loads(out)
    assert code == 0 and payload["orthogonal"] is True
    assert payload["witness"] is not None


def test_ortho_bj_and_eps_shape_mismatch_exit_2(capsys, files, tmp_path):
    # a 2x2 zero matrix against a 3x3 other is refused like any nonzero one
    zero = tmp_path / "zero2.json"
    zero.write_text(json.dumps({"rows": 2, "cols": 2, "data": [0, 0, 0, 0]}))
    for matrix in (str(zero), files["diag31"]):
        for extra in (["bj"], ["eps", "--eps", "0.1"], ["eps", "--eps", "0.1", "--mode", "real"]):
            code, out, err = run(capsys, "ortho", *extra, "--matrix", matrix,
                                 "--other", files["a3"], "--norm", "spectral")
            assert code == 2, (matrix, extra)
            assert "shape mismatch" in err and out == "", (matrix, extra)


def test_subspace_commands_shape_mismatch_exit_2(capsys, files):
    # a 2x2 matrix against a 3x3 subspace is refused before any factorization
    for extra in (["ortho", "subspace", "--norm", "spectral"],
                  ["approx", "--certify", "--norm", "spectral"], ["strict"]):
        code, out, err = run(capsys, *extra, "--matrix", files["diag31"],
                             "--subspace", files["sub_i3"])
        assert code == 2, extra
        assert "does not match subspace shape" in err and out == "", extra


def _contract_matrix(rng, kind, shape, scale):
    if kind == "zero":
        return np.zeros(shape, dtype=complex)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "rank1":
        g = np.outer(g[:, 0], g[0])
    elif kind == "tied":
        u, s, vh = np.linalg.svd(g, full_matrices=False)
        g = (u * np.r_[2.0, 2.0, np.ones(s.size - 2)]) @ vh
    elif kind in ("nan", "inf"):
        g[0, 0] = float(kind)
        return g
    return scale * g


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from([("ortho", "subspace", "--norm", "kyfan:p=2,k=2"),
                                ("ortho", "subspace", "--norm", "spectral"),
                                ("approx", "--certify", "--norm", "spectral", "--starts", "4"),
                                ("strict", "--starts", "4")]),
       kind=st.sampled_from(["zero", "rank1", "tied", "random", "nan", "inf"]),
       scale=st.sampled_from([1e-300, 1.0, 1e300]),
       shape=st.sampled_from([(2, 2), (3, 3), (2, 3)]),
       sub_shape=st.sampled_from([(2, 2), (3, 3), (2, 3)]),
       field=st.sampled_from(["real", "complex"]), seed=st.integers(0, 2 ** 16))
def test_cli_contract_on_matrix_subspace_commands(command, kind, scale, shape, sub_shape,
                                                  field, seed):
    """Any matrix against any subspace: exit 0, 2 or 3, standard JSON on stdout
    (nothing on an error), and the same stdout again for the same --seed."""
    rng = np.random.default_rng(seed)
    a = _contract_matrix(rng, kind, shape, scale)
    basis = [rng.standard_normal(sub_shape) for _ in range(1 + seed % 2)]
    with tempfile.TemporaryDirectory() as d:
        with open(d + "/a.json", "w") as fh:
            json.dump(matrix_json(a), fh)
        with open(d + "/s.json", "w") as fh:
            json.dump({"field": field, "basis": [matrix_json(b) for b in basis]}, fh)
        argv = list(command) + ["--matrix", d + "/a.json", "--subspace", d + "/s.json",
                                "--seed", str(seed)]
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()), \
                    np.errstate(all="ignore"):
                code = main(argv)
            assert code in (0, 2, 3), argv
            outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    if shape != sub_shape or kind in ("nan", "inf"):
        assert code == 2
    if code == 2 or not outs[0]:
        assert code != 0 and outs[0] == ""
    else:
        json.loads(outs[0], parse_constant=reject)


def test_ortho_eps_and_parallel(capsys, files):
    code, out, _ = run(capsys, "ortho", "eps", "--matrix", files["a3"],
                       "--other", files["x011"], "--norm", "kyfan:p=2,k=1",
                       "--eps", "0.5")
    payload = json.loads(out)
    assert code == 0 and payload["orthogonal"] is True
    assert payload["mode"] == "complex"

    code, out, _ = run(capsys, "ortho", "parallel", "--matrix", files["diag31"],
                       "--other", files["diag31"], "--norm", "kyfan:p=2,k=1")
    payload = json.loads(out)
    assert code == 0 and payload["parallel"] is True
    assert abs(payload["lambda"][0] - 1.0) <= 1e-9


def test_ortho_subspace_certificate(capsys, files):
    # A - Y_st is orthogonal to the span, so the certificate must verify
    code, out, _ = run(capsys, "approx", "--matrix", files["ce_a"],
                       "--subspace", files["sub_x"], "--norm", "kyfan:p=2,k=2")
    assert code == 0
    res = json.loads(out)
    a = parse_matrix_obj(json.loads(open(files["ce_a"]).read()), "a")
    shifted = a - parse_matrix_obj(res["y"], "y")
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(matrix_json(shifted), fh)
        shifted_path = fh.name
    code, out, _ = run(capsys, "ortho", "subspace", "--matrix", shifted_path,
                       "--subspace", files["sub_x"], "--norm", "kyfan:p=2,k=2")
    payload = json.loads(out)
    assert code == 0
    assert payload["feasible"] and payload["verified"]
    assert payload["residual_perp"] <= 1e-8
    assert 0.0 <= payload["residual_lower"] <= payload["residual_perp"] + 1e-12
    assert payload["dual_norm_bound"] <= 1.0 + 1e-8
    t0 = parse_matrix_obj(payload["density_matrices"][0], "t")
    assert abs(np.trace(t0) - 1.0) <= 1e-8


def test_approx_payload_and_certify(capsys, files):
    code, out, _ = run(capsys, "approx", "--matrix", files["a3"],
                       "--subspace", files["sub_i3"], "--norm", "schatten:p=2",
                       "--certify")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - np.sqrt(42.0) / 3.0) <= 1e-6  # residual diag(5,-1,-4)/3
    y = parse_matrix_obj(payload["y"], "y")
    r = parse_matrix_obj(payload["residual"], "r")
    a = parse_matrix_obj(json.loads(open(files["a3"]).read()), "a")
    assert np.max(np.abs(y + r - a)) <= 1e-12
    assert payload["certificate"]["found"]
    assert payload["certificate"]["residual_perp"] <= 1e-7
    assert payload["converged"] and payload["flags"] == []
    # the Frobenius optimum closes the duality-gap bracket in the first polish
    assert abs(payload["trace"]["duality_gap"]) <= 1e-7 * (1.0 + payload["value"])
    assert payload["trace"]["bound"] == "hoelder" and payload["trace"]["iterations"] == 0
    assert run(capsys, "approx", "--matrix", files["a3"], "--subspace", files["sub_i3"],
               "--norm", "schatten:p=2", "--certify")[1] == out


def test_approx_certify_is_verified(capsys, files):
    # verified is verify_certificate's verdict at the residual, at --cert-tol;
    # a zero residual is certified without matrices, so there is nothing to verify
    for argv, verified in ((["--matrix", files["a3"], "--subspace", files["sub_i3"],
                             "--norm", "spectral"], True),
                           (["--matrix", files["a3"], "--subspace", files["sub_i3"],
                             "--norm", "kyfan:p=3,k=2", "--cert-tol", "1e-8"], True),
                           (["--matrix", files["eye2"], "--subspace", files["eye2_sub"],
                             "--norm", "spectral"], None)):
        code, out, _ = run(capsys, "approx", "--certify", "--starts", "4", *argv)
        cert = json.loads(out)["certificate"]
        assert code == 0 and cert["found"] is True and cert["verified"] is verified, argv
        assert (cert["f"] is None) == (verified is None), argv


def test_strict_payload(capsys, files):
    code, out, _ = run(capsys, "strict", "--matrix", files["a3"],
                       "--subspace", files["sub_i3"], "--starts", "8")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["values"][0] - 1.5) <= 1e-6
    assert np.max(np.abs(np.array(payload["sigma"]) - [1.5, 1.5, 0.5])) <= 1e-6
    assert payload["multiplicities"] == [2, 1]
    assert payload["stages"][1]["skipped"] is True
    # sigma_1 and sigma_2 are fixed by one certified solve, sigma_3 by what is left
    assert payload["stages"][0]["gap"] == payload["stages"][1]["gap"] <= 1e-7
    assert payload["stages"][2]["gap"] == 0.0 and payload["stages"][2]["active"] == 2


def test_sweep_payload_and_csv(capsys, files, tmp_path):
    out_csv = tmp_path / "rec.csv"
    code, out, _ = run(capsys, "sweep", "--matrix", files["ce_a"],
                       "--subspace", files["sub_x"], "--pmax", "4",
                       "--starts", "8", "--out", str(out_csv))
    assert code == 0
    payload = json.loads(out)
    assert [r["p"] for r in payload["records"]] == [2.0, 4.0]
    assert payload["convergence"]["all_converged"]
    for c in payload["convergence"]["checks"]:
        assert c["verdict"] == "ConvergesWithinTol"
    lines = out_csv.read_bytes().split(b"\r\n")
    assert len([l for l in lines if l]) == 3  # header + 2 records


def test_sweep_rejects_a_non_finite_pmax(capsys, files):
    for pmax in ("inf", "-inf", "nan", "1"):
        code, out, _ = run(capsys, "sweep", "--matrix", files["ce_a"],
                           "--subspace", files["sub_x"], "--pmax=" + pmax)
        assert code == 2 and out == "", pmax


def test_counterexample_deterministic_stdout(capsys, files, tmp_path):
    out_csv = tmp_path / "ce.csv"
    argv = ["counterexample", "--starts", "5", "--max-iter", "80", "--seed", "3",
            "--out", str(out_csv)]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # identical command + seed: byte-identical stdout
    payload = json.loads(out1)
    assert payload["hypothetical_excluded"] is True
    assert payload["flags"] == []
    assert [e["p"] for e in payload["chain"]] == [2.0, 4.0, 8.0, 16.0]
    for e in payload["chain"]:
        assert e["top2_inequality"] and e["full_inequality"] and e["sigma3_conclusion"]
    for u in payload["uniqueness"]:
        assert u["predicted"] and u["spread"] <= 1e-6 and not u["violation"]
        assert u["certified"] and u["null_sigma"] > 1e-8
    rows = out_csv.read_bytes().split(b"\r\n")
    assert len([l for l in rows if l]) == 5


def test_json_indent_flag(capsys, files):
    code, out, _ = run(capsys, "norm", "--matrix", files["diag31"],
                       "--norm", "spectral", "--json-indent", "2")
    assert code == 0
    assert out.startswith("{\n  ")
    assert json.loads(out) == {"value": 3.0}
