"""CLI surface: output schemas, exit codes, determinism."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from oapoly.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse JSON, rejecting the non-standard NaN, Infinity and -Infinity."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def _terms(*items):
    return [{"key": key, "coeff": coeff} for key, coeff in items]


SQUARE_OF_SUM = {"s": 2, "n": 2, "d": 1, "terms": _terms(([0, 0], [1.0]), ([0, 1], [1.0]), ([1, 1], [1.0]))}

GOLDEN_POLYS = {
    "threeway": {"s": 3, "n": 3, "d": 1, "terms": _terms(([0, 1, 2], [1.0]), ([0, 0, 0], [1.0]))},
    "weak": {"s": 3, "n": 4, "d": 2, "terms": _terms(
        ([0, 0, 0], [1.0, 0.5]), ([1, 1, 1], [2.0, -1.0]), ([2, 2, 2], [0.7, 1.5]),
        ([3, 3, 3], [1.2, 0.3]), ([0, 1, 2], [3e-8, 1e-8]))},
    "weaker": {"s": 3, "n": 4, "d": 2, "terms": _terms(
        ([0, 0, 0], [1.0, 0.5]), ([1, 1, 1], [2.0, -1.0]), ([2, 2, 2], [0.7, 1.5]),
        ([3, 3, 3], [1.2, 0.3]), ([0, 1, 2], [1e-8, 3e-9]))},
    "wgm4": {"s": 4, "n": 5, "d": 2, "terms": _terms(
        ([0, 0, 0, 0], [1.0, 2.0]), ([4, 4, 4, 4], [0.5, -1.0]), ([0, 1, 2, 3], [0.25, 0.125]))},
    "diag11": {"s": 2, "diagonal": [[float(i + 1), -0.5] for i in range(11)]},
    "sparse3": {"s": 3, "n": 4, "d": 2, "terms": _terms(
        ([0, 0, 0], [1.5, -0.5]), ([1, 1, 1], [0.8, 2.0]), ([3, 3, 3], [-1.2, 0.4]),
        ([0, 1, 1], [0.3, -0.2]), ([1, 2, 3], [0.05, 0.1]))},
    "exact3": {"s": 3, "n": 3, "d": 2, "terms": _terms(
        ([0, 0, 0], ["1", "-2/3"]), ([1, 1, 1], ["5/2", "1/7"]), ([2, 2, 2], ["3/4", "2"]))},
}



def _dense_poly(s, n, d, seed):
    """Every key of degree s over n coordinates, with random coefficients."""
    rng = np.random.default_rng(seed)
    keys = list(itertools.combinations_with_replacement(range(n), s))
    coeffs = rng.uniform(-2.0, 2.0, (len(keys), d)).tolist()
    return {"s": s, "n": n, "d": d, "terms": _terms(*zip(map(list, keys), coeffs))}


# (polynomial, input vectors) of `poly multilinear`: a dense polynomial with
# many arrangement counts, a sparse one and an exact-rational one
MULTILINEAR_CASES = {
    "dense4x12": (_dense_poly(4, 12, 2, seed=41),
                  np.random.default_rng(42).uniform(0.5, 2.0, (4, 12)).tolist()),
    "sparse_d3": ({"s": 3, "n": 5, "d": 3, "terms": _terms(
        ([0, 0, 0], [1.5, -0.5, 0.25]), ([1, 2, 3], [0.3, -0.2, 1e-3]),
        ([0, 0, 4], [-1.25, 0.75, 2.0]), ([2, 2, 2], [0.8, 2.0, -3.0]),
        ([1, 4, 4], [0.05, 0.1, -0.7]))},
        [[0.51, 1.2345, 0.0, 3.0001, 1.75], [2.02, 0.0, 0.1234, 1.57, 0.3],
         [1.1, 0.93, 2.5, 0.0, 0.61]]),
    "exact": ({"s": 3, "n": 3, "d": 2, "terms": _terms(
        ([0, 0, 0], ["1", "-2/3"]), ([0, 1, 2], ["5/2", "1/7"]), ([1, 1, 2], ["3/4", "2"]))},
        [["1", "2/3", "0"], ["3", "1/5", "7/2"], ["1/2", "4", "1"]]),
}


class TestPartitions:
    def test_list_s4(self, capsys):
        code, out, _ = run_cli(capsys, "partitions", "list", "--s", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"s": 4, "partitions": [[1, 1, 1, 1], [2, 1, 1]]}

    def test_check_complete(self, capsys):
        code, out, _ = run_cli(capsys, "partitions", "check", "--s", "4", "--parts", "2,1,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["complete"] is True
        assert payload["weights"] == ["1/2", "1/4", "1/4"]

    def test_check_incomplete(self, capsys):
        code, out, _ = run_cli(capsys, "partitions", "check", "--s", "4", "--parts", "1,3")
        assert code == 0
        assert json.loads(out)["complete"] is False

    def test_bad_parts_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "partitions", "check", "--s", "4", "--parts", "a,b")
        assert code == 2
        assert "--parts" in err


class TestMeans:
    @pytest.fixture
    def vectors_file(self, tmp_path):
        path = tmp_path / "vectors.json"
        path.write_text(json.dumps([[1.0], [3.0]]))
        return str(path)

    def test_hm_closed(self, capsys, vectors_file):
        code, out, _ = run_cli(capsys, "means", "eval", "--mean", "hm",
                               "--method", "closed", "--inputs", vectors_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == [1.5]
        assert payload["method"] == "closed_form"
        assert payload["residual_bound"] is None

    def test_hm_lagrange_matches_closed(self, capsys, vectors_file):
        code, out, _ = run_cli(capsys, "means", "eval", "--mean", "hm",
                               "--method", "lagrange", "--s", "2",
                               "--inputs", vectors_file)
        assert code == 0
        assert json.loads(out)["value"] == [pytest.approx(1.5, rel=1e-12)]

    def test_grid_reports_bound(self, capsys, vectors_file):
        code, out, _ = run_cli(capsys, "means", "eval", "--mean", "hm",
                               "--method", "grid", "--resolution", "32",
                               "--inputs", vectors_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["residual_bound"] > 0

    def test_wgm(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps([[16.0], [1.0], [1.0]]))
        code, out, _ = run_cli(capsys, "means", "eval", "--mean", "wgm",
                               "--weights", "2,1,1", "--inputs", str(path))
        assert code == 0
        assert json.loads(out)["value"] == [pytest.approx(4.0, rel=1e-12)]

    def test_non_finite_bound_is_strict_json(self, capsys, tmp_path):
        path = tmp_path / "spread.json"
        path.write_text(json.dumps([[1e-300], [1e300]]))
        code, out, _ = run_cli(capsys, "means", "eval", "--mean", "wgm", "--weights", "1,1",
                               "--method", "grid", "--resolution", "8", "--inputs", str(path))
        assert code == 3
        assert strict_json(out)["residual_bound"] == "inf"

    def test_rmp_requires_s(self, capsys, vectors_file):
        code, _, err = run_cli(capsys, "means", "eval", "--mean", "rmp",
                               "--inputs", vectors_file)
        assert code == 2 and "--s" in err

    def test_arity_cross_check(self, capsys, vectors_file):
        code, _, err = run_cli(capsys, "means", "eval", "--mean", "hm", "--s", "3",
                               "--inputs", vectors_file)
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "means", "eval", "--mean", "hm",
                               "--inputs", "/nonexistent.json")
        assert code == 2 and "not found" in err

    def test_malformed_vector_diagnostic_names_offender(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([[1.0], "oops"]))
        code, _, err = run_cli(capsys, "means", "eval", "--mean", "hm",
                               "--inputs", str(path))
        assert code == 2
        assert "vector #1" in err

    def test_exact_vectors_round_trip(self, capsys, tmp_path):
        path = tmp_path / "exact.json"
        path.write_text(json.dumps([["1/1"], ["3/1"]]))
        code, out, _ = run_cli(capsys, "means", "eval", "--mean", "hm",
                               "--inputs", str(path))
        assert code == 0
        assert json.loads(out)["value"] == ["3/2"]


class TestPoly:
    @pytest.fixture
    def poly_file(self, tmp_path):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({"s": 2, "diagonal": [[1.0], [1.0]]}))
        return str(path)

    @pytest.fixture
    def mixed_poly_file(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({
            "s": 2, "n": 2, "d": 1,
            "terms": [
                {"key": [0, 0], "coeff": [1.0]},
                {"key": [0, 1], "coeff": [1.0]},
                {"key": [1, 1], "coeff": [1.0]},
            ],
        }))
        return str(path)

    def test_eval(self, capsys, poly_file, tmp_path):
        vpath = tmp_path / "v.json"
        vpath.write_text(json.dumps([3.0, 4.0]))
        code, out, _ = run_cli(capsys, "poly", "eval", "--poly", poly_file,
                               "--input", str(vpath))
        assert code == 0
        assert json.loads(out)["value"] == [25.0]

    def test_multilinear(self, capsys, poly_file, tmp_path):
        vpath = tmp_path / "vs.json"
        vpath.write_text(json.dumps([[1.0, 2.0], [3.0, 6.0]]))
        code, out, _ = run_cli(capsys, "poly", "multilinear", "--poly", poly_file,
                               "--inputs", str(vpath))
        assert code == 0
        assert json.loads(out)["value"] == [15.0]

    # sha256 of `poly multilinear` stdout, recorded before the float form was
    # evaluated on the compiled TermStack
    @pytest.mark.parametrize("case, digest", [
        ("dense4x12", "1208848f0b90c39747e65aafcf5163416d055d8b005d67a0721a9413de9a816d"),
        ("sparse_d3", "8fa2b4a7b78ca37e54d4356885397c1f807931585ed0a7a1b6db6891d66db292"),
        ("exact", "84ebd8d5c723edf7a0e546d8165f9e158c2d8db9896ee54dd758bb16dc1a29fd"),
    ])
    def test_multilinear_golden_digest(self, capsys, tmp_path, case, digest):
        poly, inputs = MULTILINEAR_CASES[case]
        ppath, vpath = tmp_path / "poly.json", tmp_path / "vs.json"
        ppath.write_text(json.dumps(poly))
        vpath.write_text(json.dumps(inputs))
        code, out, _ = run_cli(capsys, "poly", "multilinear", "--poly", str(ppath),
                               "--inputs", str(vpath))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_multilinear_mixing_exact_and_float_is_usage_error(self, capsys, tmp_path):
        ppath, vpath = tmp_path / "poly.json", tmp_path / "vs.json"
        ppath.write_text(json.dumps({"s": 2, "n": 2, "d": 1,
                                     "terms": _terms(([0, 0], [1.0]), ([0, 1], [1.5]))}))
        vpath.write_text(json.dumps([["1", "1/3"], [1.0, 2.0]]))
        code, out, err = run_cli(capsys, "poly", "multilinear", "--poly", str(ppath),
                                 "--inputs", str(vpath))
        assert code == 2 and out == ""
        assert err == "error: cannot mix exact and float vectors\n"

    def test_non_finite_values_are_strict_json(self, capsys, tmp_path):
        poly, v, vs = tmp_path / "huge.json", tmp_path / "v.json", tmp_path / "vs.json"
        poly.write_text(json.dumps({"s": 2, "diagonal": [[1e308]]}))
        v.write_text(json.dumps([1e10]))
        vs.write_text(json.dumps([[1e10], [1e10]]))
        for argv in (["eval", "--input", str(v)], ["multilinear", "--inputs", str(vs)]):
            code, out, _ = run_cli(capsys, "poly", *argv, "--poly", str(poly))
            assert code == 0
            assert strict_json(out) == {"value": ["inf"]}

    def test_finite_bytes_unchanged(self, capsys, poly_file, tmp_path):
        vpath = tmp_path / "v.json"
        vpath.write_text(json.dumps([3.0, 0.5]))
        _, out, _ = run_cli(capsys, "poly", "eval", "--poly", poly_file, "--input", str(vpath))
        assert out == '{\n  "value": [\n    9.25\n  ]\n}\n'

    def test_oa_check_pass_and_fail(self, capsys, poly_file, mixed_poly_file):
        code, out, _ = run_cli(capsys, "poly", "oa-check", "--poly", poly_file,
                               "--trials", "32", "--seed", "1", "--exhaustive")
        assert code == 0 and json.loads(out)["passed"] is True
        code, out, _ = run_cli(capsys, "poly", "oa-check", "--poly", mixed_poly_file,
                               "--trials", "32", "--seed", "1", "--exhaustive")
        assert code == 1 and json.loads(out)["passed"] is False

    @pytest.mark.parametrize("payload, field", [
        ({"s": 2.7, "n": 2, "d": 1, "terms": [{"key": [0, 0], "coeff": [1.0]}]}, "'s'"),
        ({"s": 2, "n": 2, "d": 1, "terms": [{"key": [0.5, 1], "coeff": [1.0]}]}, "'key'"),
        ({"s": 2, "n": True, "d": 1, "terms": [{"key": [0, 1], "coeff": [1.0]}]}, "'n'"),
    ])
    def test_non_integral_poly_is_usage_error(self, capsys, tmp_path, payload, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "poly", "oa-check", "--poly", str(path),
                               "--trials", "8", "--seed", "0")
        assert code == 2 and field in err
        code, _, err = run_cli(capsys, "verify", "hm", "--s", "2", "--n", "2",
                               "--trials", "5", "--poly", str(path))
        assert code == 2 and field in err

    def test_malformed_poly_names_field(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"n": 2, "d": 1, "terms": []}))
        code, _, err = run_cli(capsys, "poly", "eval", "--poly", str(path),
                               "--input", str(path))
        assert code == 2 and "'s'" in err


class TestVerify:
    def test_single_claim(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "schur", "--s", "3", "--n", "3",
                               "--trials", "20", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["claim_id"] == "SCHUR" and payload["passed"] is True

    def test_all_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--s", "2", "--n", "3",
                               "--trials", "5", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert len(payload["reports"]) == 8

    def test_all_csv(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--s", "2", "--n", "3",
                               "--trials", "5", "--seed", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "claim_id,trials,max_residual,tolerance,passed"
        assert len(lines) == 9

    def test_determinism_byte_identical(self, capsys):
        args = ["verify", "all", "--s", "3", "--n", "4", "--trials", "25", "--seed", "7"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    # sha256 of `verify all --format json` stdout, recorded before trials ran as
    # array blocks; a deliberate change of the random stream updates them
    @pytest.mark.parametrize("s, n, d, trials, seed, digest", [
        (2, 3, 1, 50, 1, "491aae4b8c2fb8b30c315eacc4628cbd4d2b6c1383b813a8a80b81dad4554adb"),
        (3, 4, 2, 100, 7, "c4edd3d119ab1f93bd77fb1ab18cf3e9c1fb2fe9f8a938c06a87c81025e3d850"),
        (5, 6, 3, 40, 2024, "b71123ec71f005ac9d540aecb8ab21d76fd2bad609b60b1f4f71c67e6eb72611"),
    ])
    def test_golden_digest(self, capsys, s, n, d, trials, seed, digest):
        code, out, _ = run_cli(capsys, "verify", "all", "--s", str(s), "--n", str(n),
                               "--d", str(d), "--trials", str(trials), "--seed", str(seed),
                               "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of single-claim `verify` stdout (stderr for the usage error),
    # recorded before the claims were defined by one table: every flag on
    # random diagonal polynomials, a run over two blocks, float sparse and
    # exact-rational user polynomials, fixed partitions, failing runs (exit 1)
    # and the list of falsifiable flags
    @pytest.mark.parametrize("poly, argv, exit_code, digest", [
        (None, "verify rmp --s 4 --n 5 --d 2 --trials 300 --seed 21", 0,
         "ddbd9cdeec6a7d1a362180512013eb7a51737ebceb3d60a7a584469c03007897"),
        (None, "verify gm --s 4 --n 5 --d 2 --trials 300 --seed 21", 0,
         "15dd841e6a3e2766088a6aacafdd2e9b02c12810ef7c663fe65d30305e9bd5b9"),
        (None, "verify schur --s 4 --n 5 --d 2 --trials 300 --seed 21", 0,
         "9c0e654402b988f8cc77111e592ec8f14a124ba00e35f9d83469d18329a8a378"),
        (None, "verify ortho --s 4 --n 5 --d 2 --trials 300 --seed 21", 0,
         "783af606300331d5bc099cc9ba2495c43a7c26f20ff889fd8359d9ab4e68f8e9"),
        (None, "verify hm --s 4 --n 5 --d 2 --trials 300 --seed 21", 0,
         "77c8d7343f490ea20f5599e249ac7879fe62e1842d75c64d4d213eaa227399c1"),
        (None, "verify geos --s 4 --n 5 --d 2 --trials 300 --seed 21", 0,
         "6476131ad5277175c07470008cb7f5d31db878787c2e76258aa19ea864e39542"),
        (None, "verify wgm --s 4 --n 5 --d 2 --trials 300 --seed 21", 0,
         "419c07afc8d46755a7af0cd93890cb0b0da02fa3d324ee651d910963aca9664f"),
        (None, "verify cross --s 4 --n 5 --d 2 --trials 300 --seed 21", 0,
         "51ec683737382068fae513c05acb460c17866782e3484636b984794609d33fbf"),
        (None, "verify rmp --s 3 --n 3 --trials 1100 --seed 8", 0,
         "f2e69f2fe74e90b873fb7cea83587c8bd512d0c8834ab076b45b77272ea039ef"),
        ("sparse3", "verify rmp --s 3 --n 4 --d 2 --trials 80 --seed 3", 1,
         "0354f31a5515a1f2ec5ec78e05c359c5e060262cf63ea7bea8a04e2e7d61bcbd"),
        ("sparse3", "verify gm --s 3 --n 4 --d 2 --trials 80 --seed 3", 1,
         "b496f426cff30062d0882c264f21aaa9c5da72c7e25888ce83721b185ee0671e"),
        ("sparse3", "verify hm --s 3 --n 4 --d 2 --trials 80 --seed 3", 1,
         "48ca646804ca4e6186bc722802a9f45d0ef08d3d783b97e8f7a3b6eddb8349db"),
        ("sparse3", "verify wgm --s 3 --n 4 --d 2 --trials 80 --seed 3", 1,
         "92a2345071d4ce263ce1e082d524c0ac58e1a94e14573c29e0bf37cc4259d719"),
        ("sparse3", "verify cross --s 3 --n 4 --d 2 --trials 80 --seed 3", 1,
         "9f47b9c93036750fae692ff32ab31cb0cafff68f60dfb69f198dc6867c43093b"),
        ("exact3", "verify rmp --s 3 --n 3 --d 2 --trials 25 --seed 4", 0,
         "4c0d5abb711a3cab619e778692e80e604f09e8ec5f89fb35efe0baf08a659897"),
        ("exact3", "verify gm --s 3 --n 3 --d 2 --trials 25 --seed 4", 0,
         "332511585b51752b0d6f291e3addb99269ce1aa4565630efbfea850753eb83d6"),
        ("exact3", "verify hm --s 3 --n 3 --d 2 --trials 25 --seed 4", 0,
         "3d505d042e1c7e6c5cf140a8795399941c3032b8078f26b8df292bcc8840a6c2"),
        ("exact3", "verify wgm --s 3 --n 3 --d 2 --trials 25 --seed 4", 0,
         "c5143a7f1815dfb0b985a35ccc1c4bcc7a73851a94e57c68cbb4f32b0dbc2fd1"),
        ("exact3", "verify cross --s 3 --n 3 --d 2 --trials 25 --seed 4", 0,
         "b553ef5b9f82674fb7a22a82b34a06aec7ed24484922b8252303ca55483b5679"),
        (None, "verify geos --s 4 --n 3 --partition 2,1,1 --trials 200 --seed 6", 0,
         "eab5e78e41acaf72c5d41eb32cba7db182829304d62926baafb3d631e0b36a0c"),
        (None, "verify wgm --s 4 --n 3 --d 2 --partition 2,1,1 --trials 200 --seed 6", 0,
         "526a1f9f99e9125837f6ca257aef28c86c44e0fb7a7758d839228b30f2a4933e"),
        ("wgm4", "verify wgm --s 4 --n 5 --d 2 --partition 2,1,1 --trials 60 --seed 2", 1,
         "cbe5cbd832493a480ea7a0a2f274cf6f6fe3218fa58e49f445891564defb8e31"),
        ("threeway", "verify falsify --claim schur", 2,
         "78766c5cc866d93f3068284faacb638c812f582b4a9db3bb2c6fec8b47e2b98e"),
    ])
    def test_single_claim_golden_digest(self, capsys, tmp_path, poly, argv, exit_code, digest):
        extra = []
        if poly is not None:
            path = tmp_path / "poly.json"
            path.write_text(json.dumps(GOLDEN_POLYS[poly]))
            extra = ["--poly", str(path)]
        code, out, err = run_cli(capsys, *argv.split(), *extra)
        assert code == exit_code
        text = err if code == 2 else out
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_failing_poly_exit_one(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({
            "s": 2, "n": 2, "d": 1,
            "terms": [{"key": [0, 0], "coeff": [1.0]},
                      {"key": [0, 1], "coeff": [1.0]},
                      {"key": [1, 1], "coeff": [1.0]}],
        }))
        code, out, _ = run_cli(capsys, "verify", "hm", "--s", "2", "--n", "2",
                               "--trials", "5", "--seed", "0", "--poly", str(path))
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_falsify_witness_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({
            "s": 2, "n": 2, "d": 1,
            "terms": [{"key": [0, 0], "coeff": [1.0]},
                      {"key": [0, 1], "coeff": [1.0]},
                      {"key": [1, 1], "coeff": [1.0]}],
        }))
        code, out, _ = run_cli(capsys, "verify", "falsify", "--claim", "hm",
                               "--poly", str(path), "--budget", "500", "--seed", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True and payload["kind"] == "falsify"

    def test_falsify_inconclusive_exit_three(self, capsys, tmp_path):
        path = tmp_path / "threeway.json"
        path.write_text(json.dumps({
            "s": 3, "n": 3, "d": 1,
            "terms": [{"key": [0, 1, 2], "coeff": [1.0]},
                      {"key": [0, 0, 0], "coeff": [1.0]}],
        }))
        code, out, _ = run_cli(capsys, "verify", "falsify", "--claim", "hm",
                               "--poly", str(path), "--budget", "2", "--seed", "2")
        assert code == 3
        assert json.loads(out)["inconclusive"] is True

    @pytest.mark.parametrize("budget", ["0", "-4"])
    def test_falsify_budget_below_one_is_usage_error(self, capsys, tmp_path, budget):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(GOLDEN_POLYS["threeway"]))
        code, out, err = run_cli(capsys, "verify", "falsify", "--claim", "hm",
                                 "--poly", str(path), "--budget", budget)
        assert code == 2 and out == "" and "--budget" in err

    # sha256 of `verify falsify` and `poly oa-check` stdout, recorded before
    # the searches ran as array blocks: random-phase witnesses early and late,
    # an inconclusive search, exhaustive, random and multi-block checks
    @pytest.mark.parametrize("poly, argv, exit_code, digest", [
        ("threeway", "verify falsify --claim hm --budget 5000 --seed 1", 0,
         "fa53b6b952cb2e26f87d5f73b2d3734d2cd70630a11c69f528e8c23a62a73b3f"),
        ("weak", "verify falsify --claim cross --budget 1500 --seed 3", 0,
         "4ad4d73184bd8ca289d6a027cebce4f6362b5b1e0153f46b3c9bd8d8d8c43991"),
        ("weaker", "verify falsify --claim cross --budget 1500 --seed 4", 3,
         "b55507881c24ec18f3a1829f2cfe4819f84b5c166e26a1d33c5729ffd30562ec"),
        ("wgm4", "verify falsify --claim wgm --partition 2,1,1 --budget 3000 --seed 11", 0,
         "f9b8920a30b111f4d85e347d2520aae6b3f5dadf83dd916e43886427f2f985d0"),
        ("wgm4", "poly oa-check --trials 100 --seed 4 --exhaustive", 1,
         "70180e528ace8eff3d1e90ca8d9b073b9433c92c8b94f03bd6066689349b46a6"),
        ("weak", "poly oa-check --trials 2500 --seed 9", 1,
         "1b9f1fd71185b496a7449ccfb3723515a06527f9bb2d1ebce0822917ffaf14b0"),
        ("diag11", "poly oa-check --seed 2 --exhaustive", 0,
         "1107156cbfb56a03ffe4b27baf626a23af63480941fc27634438a9de686ae1d0"),
    ])
    def test_search_golden_digest(self, capsys, tmp_path, poly, argv, exit_code, digest):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(GOLDEN_POLYS[poly]))
        code, out, _ = run_cli(capsys, *argv.split(), "--poly", str(path))
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # a --poly or --partition that the claim would ignore exits 2 naming the flag
    @pytest.mark.parametrize("argv, flag", [
        *[(f"verify {claim} --s 2 --n 2 --poly SQ", "--poly")
          for claim in ("schur", "ortho", "geos", "all")],
        *[(f"verify {claim} --s 2 --n 2 --partition 1,1", "--partition")
          for claim in ("rmp", "gm", "schur", "ortho", "hm", "cross", "all")],
        *[(f"verify falsify --claim {claim} --poly SQ --partition 1,1", "--partition")
          for claim in ("rmp", "gm", "hm", "cross")],
    ])
    def test_flag_the_claim_ignores_is_usage_error(self, capsys, tmp_path, argv, flag):
        path = tmp_path / "sq.json"
        path.write_text(json.dumps(SQUARE_OF_SUM))
        code, out, err = run_cli(capsys, *argv.replace("SQ", str(path)).split())
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag} does not apply to 'oapoly verify ")

    @pytest.mark.parametrize("argv, exit_code", [
        ("verify hm --s 2 --n 2 --poly SQ", 1),
        ("verify geos --s 3 --n 2 --partition 2,1", 0),
        ("verify wgm --s 2 --n 2 --poly SQ --partition 1,1", 1),
        ("verify falsify --claim wgm --poly SQ --partition 1,1", 0),
        # the benchmark's two CLI invocations
        ("verify all --s 3 --n 4 --d 1 --trials 30 --seed 5", 0),
        ("verify falsify --claim hm --poly SQ --budget 10000 --seed 5", 0),
    ])
    def test_flags_the_claim_takes_are_accepted(self, capsys, tmp_path, argv, exit_code):
        path = tmp_path / "sq.json"
        path.write_text(json.dumps(SQUARE_OF_SUM))
        code, out, _ = run_cli(capsys, *argv.replace("SQ", str(path)).split())
        assert code == exit_code and strict_json(out)

    # --format belongs to `verify all`, --claim and --budget to `verify falsify`
    @pytest.mark.parametrize("argv, flag", [
        ("verify hm --s 2 --n 2 --trials 3 --format csv --budget 5 --claim gm --poly SQ",
         "--format"),
        ("verify rmp --s 2 --n 2 --trials 3 --format json", "--format"),
        ("verify falsify --claim hm --poly SQ --format csv", "--format"),
        ("verify gm --s 2 --n 2 --trials 3 --claim gm", "--claim"),
        ("verify all --s 2 --n 2 --trials 3 --claim hm", "--claim"),
        ("verify schur --s 2 --n 2 --trials 3 --budget 5", "--budget"),
        ("verify all --s 2 --n 2 --trials 3 --budget 10000", "--budget"),
    ])
    def test_flag_of_another_subcommand_is_usage_error(self, capsys, tmp_path, argv, flag):
        path = tmp_path / "sq.json"
        path.write_text(json.dumps(SQUARE_OF_SUM))
        code, out, err = run_cli(capsys, *argv.replace("SQ", str(path)).split())
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag} does not apply to 'oapoly verify ")

    def test_omitted_format_and_budget_take_their_defaults(self, capsys, tmp_path):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(GOLDEN_POLYS["weaker"]))
        for argv, flag in (("verify all --s 2 --n 3 --trials 5 --seed 3", "--format json"),
                           (f"verify falsify --claim cross --poly {path} --seed 4",
                            "--budget 10000")):
            default = run_cli(capsys, *argv.split())
            explicit = run_cli(capsys, *argv.split(), *flag.split())
            assert default == explicit and default[1]

    def test_usage_error(self, capsys):
        assert run_cli(capsys, "verify", "nonsense")[0] == 2
        assert run_cli(capsys, "verify", "falsify")[0] == 2
