"""CLI surface: output schemas, exit codes, determinism."""

import hashlib
import itertools
import json
import warnings

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


# single-claim `verify` runs: (polynomial, argv, exit code, sha256 of the output)
SINGLE_CLAIM_CASES = [
    (None, "verify rmp --s 4 --n 5 --d 2 --trials 300 --seed 21", 0,
     "34f2b9f7f1c8d016652c8d4f81aabfbae8ab62ca9725f5cb6c83479c35c021b5"),
    (None, "verify gm --s 4 --n 5 --d 2 --trials 300 --seed 21", 0,
     "e28df5ac809fea0642d8e0dfae77ca7c936b71ac89bdd49cef86b91f8b488566"),
    (None, "verify schur --s 4 --n 5 --d 2 --trials 300 --seed 21", 0,
     "9c0e654402b988f8cc77111e592ec8f14a124ba00e35f9d83469d18329a8a378"),
    (None, "verify ortho --s 4 --n 5 --d 2 --trials 300 --seed 21", 0,
     "783af606300331d5bc099cc9ba2495c43a7c26f20ff889fd8359d9ab4e68f8e9"),
    (None, "verify hm --s 4 --n 5 --d 2 --trials 300 --seed 21", 0,
     "8c55eb48d2aa8d2d6531083f65de6836b332a57c817af4c61dd0779191d4c7fa"),
    (None, "verify geos --s 4 --n 5 --d 2 --trials 300 --seed 21", 0,
     "998bee57d45c14250ddfe508bfda0dfc73d0de2c55a1f4443dd686e5d8bb1a0c"),
    (None, "verify wgm --s 4 --n 5 --d 2 --trials 300 --seed 21", 0,
     "9f285d8d69bbea6742640bf9270fd1b868aa52b38915f4a3736b9c785df9437b"),
    (None, "verify cross --s 4 --n 5 --d 2 --trials 300 --seed 21", 0,
     "51ec683737382068fae513c05acb460c17866782e3484636b984794609d33fbf"),
    (None, "verify rmp --s 3 --n 3 --trials 1100 --seed 8", 0,
     "088ab2fbc3166ed5bd0c1d65df1303e5f7f73a09b8e41fb886decaf6ee2f9746"),
    ("sparse3", "verify rmp --s 3 --n 4 --d 2 --trials 80 --seed 3", 1,
     "da5f4b335cb0422b7a44bfb626cd9a92f277d2b45ecaac59335598d4ade36ec5"),
    ("sparse3", "verify gm --s 3 --n 4 --d 2 --trials 80 --seed 3", 1,
     "d1887439f7183a8bb9123eaee3928a478d88f22588a392524abbe858160c2354"),
    ("sparse3", "verify hm --s 3 --n 4 --d 2 --trials 80 --seed 3", 1,
     "a5b82213fe9df0ab9ee1f25083e4849e79349965f5e3c4e6a1c268c70430c409"),
    ("sparse3", "verify wgm --s 3 --n 4 --d 2 --trials 80 --seed 3", 1,
     "df67a8789e4b07b7f59615cdf54766022830d22725ef7310da75ece3c14b1260"),
    ("sparse3", "verify cross --s 3 --n 4 --d 2 --trials 80 --seed 3", 1,
     "f13e7752858507d0649a96f79a8cc289c0e4a421a5b53d0424270698b86d80ca"),
    ("exact3", "verify rmp --s 3 --n 3 --d 2 --trials 25 --seed 4", 0,
     "f84e8cccb03ffa6ff80b2941eb5990b87400aeff0f14d0acd2eeee206953f850"),
    ("exact3", "verify gm --s 3 --n 3 --d 2 --trials 25 --seed 4", 0,
     "332511585b51752b0d6f291e3addb99269ce1aa4565630efbfea850753eb83d6"),
    ("exact3", "verify hm --s 3 --n 3 --d 2 --trials 25 --seed 4", 0,
     "3d505d042e1c7e6c5cf140a8795399941c3032b8078f26b8df292bcc8840a6c2"),
    ("exact3", "verify wgm --s 3 --n 3 --d 2 --trials 25 --seed 4", 0,
     "27ca7d9f47ff0a0ce72be867c2f3113291b76e1bf58623bcad2d9ed588370dd0"),
    ("exact3", "verify cross --s 3 --n 3 --d 2 --trials 25 --seed 4", 0,
     "b553ef5b9f82674fb7a22a82b34a06aec7ed24484922b8252303ca55483b5679"),
    (None, "verify geos --s 4 --n 3 --partition 2,1,1 --trials 200 --seed 6", 0,
     "eab5e78e41acaf72c5d41eb32cba7db182829304d62926baafb3d631e0b36a0c"),
    (None, "verify wgm --s 4 --n 3 --d 2 --partition 2,1,1 --trials 200 --seed 6", 0,
     "27c6bbea83674f124cad403e81980b12c61ce7b153903a317f8b9db4238f48e8"),
    ("wgm4", "verify wgm --s 4 --n 5 --d 2 --partition 2,1,1 --trials 60 --seed 2", 1,
     "b73160e26139c035027a50f0cad4bda73d6ad0f55206105b92aeada5f9f72889"),
    ("threeway", "verify falsify --claim schur", 2,
     "78766c5cc866d93f3068284faacb638c812f582b4a9db3bb2c6fec8b47e2b98e"),
]


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

    def test_hm_grid_bound_near_the_float_maximum(self, capsys, tmp_path):
        path = tmp_path / "large.json"
        path.write_text(json.dumps([[1e308], [1e308]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "means", "eval", "--mean", "hm", "--method", "grid",
                                     "--resolution", "8", "--inputs", str(path))
        assert code == 0 and err == ""
        payload = strict_json(out)
        assert payload["value"] == [1e308] and payload["residual_bound"] == 6.25e306

    @pytest.mark.parametrize("mean, flags, value", [
        ("gm", [], [2.0, 3.0]),
        ("gm", ["--s", "2"], [2.0, 3.0]),
        ("rmp", ["--s", "2"], [17 ** 0.5, 82 ** 0.5]),
    ])
    def test_closed_only_means(self, capsys, tmp_path, mean, flags, value):
        path = tmp_path / "v.json"
        path.write_text(json.dumps([[4.0, 1.0], [1.0, 9.0]]))
        argv = ["means", "eval", "--mean", mean, *flags, "--inputs", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert strict_json(out) == {"value": value, "method": "closed_form",
                                    "residual_bound": None}
        for method in ("lagrange", "grid"):
            code, out, err = run_cli(capsys, *argv, "--method", method)
            assert (code, out) == (2, "") and "closed-form route only" in err

    @pytest.mark.parametrize("flags, flag", [
        (["--mean", "hm", "--weights", "1,1", "--log-width", "7"], "--weights"),
        (["--mean", "gm", "--weights", "1,1"], "--weights"),
        (["--mean", "rmp", "--s", "2", "--weights", "1,1"], "--weights"),
        (["--mean", "hm", "--method", "closed", "--resolution", "9"], "--resolution"),
        (["--mean", "hm", "--method", "lagrange", "--resolution", "9"], "--resolution"),
        (["--mean", "wgm", "--weights", "1,1", "--resolution", "9"], "--resolution"),
        (["--mean", "hm", "--log-width", "7"], "--log-width"),
        (["--mean", "wgm", "--weights", "1,1", "--method", "lagrange", "--log-width", "0.5"],
         "--log-width"),
    ])
    def test_unused_flags_are_rejected(self, capsys, vectors_file, flags, flag):
        code, out, err = run_cli(capsys, "means", "eval", *flags, "--inputs", vectors_file)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} does not apply to 'oapoly means eval --")

    @pytest.mark.parametrize("width", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flags", [["--mean", "wgm", "--weights", "1,1"], ["--mean", "hm"]])
    def test_non_finite_log_width_is_usage_error(self, capsys, vectors_file, flags, width):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "means", "eval", *flags, "--method", "grid",
                                     f"--log-width={width}", "--inputs", vectors_file)
        assert (code, out) == (2, "")
        assert err == f"error: log_width must be finite and positive, got {width}\n"

    def test_gm_arity_cross_check(self, capsys, vectors_file):
        code, out, err = run_cli(capsys, "means", "eval", "--mean", "gm", "--s", "3",
                                 "--inputs", vectors_file)
        assert (code, out) == (2, "")
        assert err == "error: --s 3 does not match the 2 input vectors\n"

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

    # sha256 of `means eval` stdout by every route (closed, lagrange, grid at
    # m = 8 and 128 with log width 0.5), each line prefixed by its exit code;
    # `zero` has one vanishing coordinate, which leaves the wgm grid a single
    # positive column
    @pytest.mark.parametrize("mean, weights, inputs, digest", [
        ("hm", None, "n1", "73d12fa1cc59732842b2b195631e63b9afabec71550b8a06971fae3201cd5d1e"),
        ("hm", None, "n4", "18cba5f915d7bec83f463136f859dbbbfbce7e8ae4f25ab45b1216266ae62633"),
        ("hm", None, "zero", "e30b34d38c94af5aea1f14c3438b4589ff6aa636f6ff04d99ce0f4bc7d991ab7"),
        ("hm", "3", "n1", "d4f8b40581d14cc8443b97aa92d9b4edd218cb821abd9798dd206ea9fcdacdb1"),
        ("hm", "3", "n4", "cf680410b8a5726e23aa37d7f0000f631772f943042661f622b849f4f219f405"),
        ("hm", "3", "zero", "052f54ef4d5b9176e6664f39dee9539de203acc66dcba8e7ae79a27d196be85d"),
        ("wgm", "1,1", "n1", "71e678bcd9bcdf362246a89ed6317dd831a8f64689780228ae10893bdbd71911"),
        ("wgm", "1,1", "n4", "3f2fcec82b6d99a1138618ea19eedd3ac6e2337804b3717f5f043d21a0e1be3c"),
        ("wgm", "1,1", "zero", "37fc2131b7344b24ecd6e7d1887f6cd45ff296799f2ce03be4f35a685d3e49b9"),
        ("wgm", "2,1,1", "n1", "53dd6298aac18b7b25cbaf6bb09112382c27e729415b4ef20bbdc5709addc754"),
        ("wgm", "2,1,1", "n4", "563459217c5ab7aba624a40e3b7b7ea43ade78fefebe3958f367a1490e0f3f70"),
        ("wgm", "2,1,1", "zero", "42bf8cd9ac167655ec9b62efcee8352fb383107cd6e45f54ed52cfab84f6744a"),
    ])
    def test_routes_golden_digest(self, capsys, tmp_path, mean, weights, inputs, digest):
        vectors = {
            "n1": [[1.1], [0.95], [1.25]],
            "n4": [[0.93, 1.2, 1.07, 1.29], [1.18, 0.91, 1.02, 1.11], [1.05, 1.27, 0.97, 0.9]],
            "zero": [[1.12, 0.0], [0.96, 1.21], [1.24, 1.03]],
        }[inputs]
        if mean == "hm":
            arity, flags = int(weights or 2), []
        else:
            arity, flags = weights.count(",") + 1, ["--weights", weights]
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps(vectors[:arity]))
        text = ""
        for method in (["--method", "closed"], ["--method", "lagrange"],
                       *(["--method", "grid", "--resolution", m, "--log-width", "0.5"]
                         for m in ("8", "128"))):
            code, out, err = run_cli(capsys, "means", "eval", "--mean", mean, *flags,
                                     *method, "--inputs", str(path))
            assert err == ""
            text += f"{code}\n{out}"
        assert hashlib.sha256(text.encode()).hexdigest() == digest


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
    # evaluated on the compiled TermStack; dense4x12 re-recorded when each
    # key's arrangements came to be summed in order (`ordered_sum`), where
    # its keys of 12 and 24 arrangements had been summed pairwise
    @pytest.mark.parametrize("case, digest", [
        ("dense4x12", "73f53637ff2c297351266ba0e80c7363d4b4a59547b8a90d90ae1d9b03040942"),
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

    def test_exact_coefficient_beyond_float_range_at_float_vector(self, capsys, tmp_path):
        poly, v = tmp_path / "huge.json", tmp_path / "v.json"
        poly.write_text(json.dumps({"s": 2, "diagonal": [["1e400"]]}))
        v.write_text(json.dumps([2.0]))
        code, out, err = run_cli(capsys, "poly", "eval", "--poly", str(poly), "--input", str(v))
        assert (code, err) == (0, "")
        assert strict_json(out) == {"value": ["inf"]}

    def test_float_polynomial_at_exact_vectors_beyond_float_range(self, capsys, tmp_path):
        poly, v, vs = tmp_path / "p.json", tmp_path / "v.json", tmp_path / "vs.json"
        poly.write_text(json.dumps({"s": 2, "n": 1, "d": 1, "diagonal": [[1.5]]}))
        v.write_text(json.dumps(["1e400"]))
        vs.write_text(json.dumps([["1e400"], ["1"]]))
        for argv in (["eval", "--input", str(v)], ["multilinear", "--inputs", str(vs)]):
            code, out, err = run_cli(capsys, "poly", *argv, "--poly", str(poly))
            assert (code, err) == (0, "")
            assert strict_json(out) == {"value": ["inf"]}

    def test_exact_multinomial_beyond_int64(self, capsys, tmp_path):
        # the key over 21 distinct indices has 21! arrangements, beyond int64
        poly, v = tmp_path / "p.json", tmp_path / "v.json"
        poly.write_text(json.dumps({"s": 21, "n": 21, "d": 1,
                                    "terms": _terms((list(range(21)), ["1"]))}))
        v.write_text(json.dumps(["1"] * 21))
        code, out, err = run_cli(capsys, "poly", "eval", "--poly", str(poly), "--input", str(v))
        assert (code, err) == (0, "")
        assert strict_json(out) == {"value": ["51090942171709440000"]}

    def test_form_too_large_to_tabulate_is_usage_error(self, capsys, tmp_path):
        poly, vs = tmp_path / "p.json", tmp_path / "vs.json"
        poly.write_text(json.dumps({"s": 12, "n": 12, "d": 1,
                                    "terms": _terms((list(range(12)), [1.0]))}))
        vs.write_text(json.dumps([[1.0] * 12] * 12))
        code, out, err = run_cli(capsys, "poly", "multilinear", "--poly", str(poly),
                                 "--inputs", str(vs))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "479001600" in err

    def test_form_too_large_to_build_is_usage_error(self, capsys, tmp_path):
        poly, vs = tmp_path / "p.json", tmp_path / "vs.json"
        poly.write_text(json.dumps({"s": 64, "n": 4, "d": 1,
                                    "terms": _terms(([0] * 61 + [1, 2, 3], [1.0]))}))
        vs.write_text(json.dumps([[1.0] * 4] * 64))
        code, out, err = run_cli(capsys, "poly", "multilinear", "--poly", str(poly),
                                 "--inputs", str(vs))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "249984" in err

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


BIG_INT = "1" + "0" * 400  # an integer literal beyond the float range

# malformed input files: (argv, the bad file's content, what the error must
# name besides the file); {bad} is the bad file, {poly} a valid polynomial
# and {v} a valid vector. Content None makes {bad} a directory
MALFORMED_INPUTS = {
    "null entry": ("poly eval --poly {poly} --input {bad}", "[1.0, null]", "the vector"),
    "nested array": ("poly eval --poly {poly} --input {bad}", "[[1.0]]", "the vector"),
    "object entry": ("poly eval --poly {poly} --input {bad}", '[1.0, {"a": 1}]', "the vector"),
    "zero denominator, means": ("means eval --mean hm --inputs {bad}", '[["1"], ["1/0"]]',
                                "vector #1"),
    "zero denominator, eval": ("poly eval --poly {poly} --input {bad}", '["1/0", "1"]',
                               "the vector"),
    "zero denominator, multilinear": ("poly multilinear --poly {poly} --inputs {bad}",
                                      '[["1", "1"], ["1/0", "1"]]', "vector #1"),
    "zero denominator, coeff": ("poly eval --poly {bad} --input {v}",
                                '{"s": 2, "n": 2, "d": 1, "terms": [{"key": [0, 1], '
                                '"coeff": ["1/0"]}]}', "'coeff'"),
    "zero denominator, verify": ("verify hm --s 2 --n 2 --poly {bad}",
                                 '{"s": 2, "diagonal": [["1/0"], [1.0]]}', "'diagonal'"),
    "zero denominator, falsify": ("verify falsify --claim hm --poly {bad}",
                                  '{"s": 2, "n": 2, "d": 1, "terms": [{"key": [0, 1], '
                                  '"coeff": ["1/0"]}]}', "'coeff'"),
    "huge integer, vector": ("means eval --mean hm --inputs {bad}", f"[[1.0], [{BIG_INT}]]",
                             "vector #1"),
    "huge integer, coeff": ("poly eval --poly {bad} --input {v}",
                            f'{{"s": 2, "n": 2, "d": 1, "terms": [{{"key": [0, 1], '
                            f'"coeff": [{BIG_INT}]}}]}}', "'coeff'"),
    "directory": ("means eval --mean hm --inputs {bad}", None, "cannot be read"),
    "boolean entry": ("means eval --mean hm --inputs {bad}", "[[1.0, true], [2.0, 3.0]]",
                      "vector #0"),
    "terms not an array": ("poly eval --poly {bad} --input {v}",
                           '{"s": 2, "n": 2, "d": 1, "terms": 5}', "'terms'"),
    "null coeff": ("poly eval --poly {bad} --input {v}",
                   '{"s": 2, "n": 2, "d": 1, "terms": [{"key": [0, 0], "coeff": [null]}]}',
                   "'coeff'"),
    "string diagonal row": ("poly eval --poly {bad} --input {v}",
                            '{"s": 2, "diagonal": ["x", [1.0]]}', "'diagonal'"),
    "not UTF-8": ("means eval --mean hm --inputs {bad}", b"[[1.0], [\xff]]", "UTF-8"),
    "huge degree": ("poly eval --poly {bad} --input {v}",
                    '{"s": 100000000000000000000, "diagonal": [[1.0]]}', "'s'"),
    "huge dimension": ("poly eval --poly {bad} --input {v}",
                       '{"s": 2, "n": 100000000000000000000, "d": 1, "terms": []}', "'n'"),
    "huge codomain": ("poly eval --poly {bad} --input {v}",
                      '{"s": 2, "n": 2, "d": 100000000000000000000, "terms": []}', "'d'"),
    "huge exponent, means": ("means eval --mean hm --inputs {bad}", '[["1e30000"], ["1"]]',
                             "vector #0"),
    "huge exponent, diagonal": ("poly eval --poly {bad} --input {v}",
                                '{"s": 2, "diagonal": [["1e3000000"], [1.0]]}', "'diagonal'"),
    "many digits, eval": ("poly eval --poly {poly} --input {bad}",
                          '["1/' + "7" * 1001 + '", "1"]', "the vector"),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", MALFORMED_INPUTS)
    def test_exits_two_naming_file_and_field(self, capsys, tmp_path, case):
        argv, content, field = MALFORMED_INPUTS[case]
        files = {"poly": tmp_path / "poly.json", "v": tmp_path / "v.json",
                 "bad": tmp_path / "bad.json"}
        files["poly"].write_text(json.dumps(SQUARE_OF_SUM))
        files["v"].write_text("[1.0, 2.0]")
        if content is None:
            files["bad"].mkdir()
        elif isinstance(content, bytes):
            files["bad"].write_bytes(content)
        else:
            files["bad"].write_text(content)
        code, out, err = run_cli(capsys, *argv.format(**files).split())
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(files["bad"]) in err and field in err

    def test_geos_partition_of_another_degree(self, capsys):
        for claim in ("geos", "wgm"):
            code, out, err = run_cli(capsys, "verify", claim, "--s", "4", "--partition", "2,1",
                                     "--trials", "3")
            assert (code, out) == (2, "")
            assert err == "error: partition target 3 does not match polynomial degree 4\n"

    @pytest.mark.parametrize("resolution", ["1", "2"])
    def test_hm_grid_value_beyond_the_float_range(self, capsys, tmp_path, resolution):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps([[1.2e308]] * 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "means", "eval", "--mean", "hm", "--method", "grid",
                                     "--resolution", resolution, "--inputs", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: the grid value at resolution {resolution} "
                       "is beyond the float range\n")
        code, out, _ = run_cli(capsys, "means", "eval", "--mean", "hm", "--method", "grid",
                               "--resolution", "3", "--inputs", str(path))
        assert code == 0 and strict_json(out)["value"] == [1.2e308]


    def test_lagrange_routes_at_the_ends_of_the_float_range(self, capsys, tmp_path):
        hm, wgm = tmp_path / "hm.json", tmp_path / "wgm.json"
        hm.write_text(json.dumps([[5e-324, 1.0], [1.0, 1.0]]))
        wgm.write_text(json.dumps([[5e-324, 1.0], [1e308, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "means", "eval", "--mean", "hm", "--method",
                                     "lagrange", "--inputs", str(hm))
            assert (code, err) == (0, "") and strict_json(out)["value"] == [1e-323, 1.0]
            code, out, err = run_cli(capsys, "means", "eval", "--mean", "wgm", "--weights", "1,1",
                                     "--method", "lagrange", "--inputs", str(wgm))
        assert (code, out) == (2, "")
        assert err == "error: the Lagrange point G / x or its value is beyond the float range\n"


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

    @pytest.mark.parametrize("flag, named", [("--n", "n = 100000000"), ("--d", "d = 100000000")])
    def test_trial_beyond_the_stack_bound_is_usage_error(self, capsys, flag, named):
        code, out, err = run_cli(capsys, "verify", "hm", flag, "100000000", "--trials", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: one trial at ") and err.count("\n") == 1 and named in err

    def test_all_csv(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--s", "2", "--n", "3",
                               "--trials", "5", "--seed", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "claim_id,trials,max_residual,tolerance,passed"
        assert len(lines) == 9

    def test_all_human(self, capsys):
        argv = ["verify", "all", "--s", "2", "--n", "3", "--trials", "5", "--seed", "3"]
        code, out, _ = run_cli(capsys, *argv, "--format", "human")
        assert code == 0
        reports = json.loads(run_cli(capsys, *argv)[1])["reports"]
        assert out.splitlines() == [
            f"{r['claim_id']:<11}  PASS  trials=5  max_residual={r['max_residual']:.3e}"
            f"  tolerance={r['tolerance']:.3e}" for r in reports]

    def test_determinism_byte_identical(self, capsys):
        args = ["verify", "all", "--s", "3", "--n", "4", "--trials", "25", "--seed", "7"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    # sha256 of `verify all --format json` stdout, recorded when trial t's
    # inputs became row t of the seed's stream; a deliberate change of the
    # random stream updates them
    @pytest.mark.parametrize("s, n, d, trials, seed, digest", [
        (2, 3, 1, 50, 1, "9d6c4cc9e6340bb68adcead5529b6c471a0564a537c51659d3ddeb8d3a06a5a6"),
        (3, 4, 2, 100, 7, "40f814a874d917caff949e993a5934de4a5aebbc03b959fff4a188646694c8a2"),
        (5, 6, 3, 40, 2024, "04c3cb4fb806106010796160b9c90b74e11a4069efd5214bbba249aba1acc614"),
    ])
    def test_golden_digest(self, capsys, s, n, d, trials, seed, digest):
        code, out, _ = run_cli(capsys, "verify", "all", "--s", str(s), "--n", str(n),
                               "--d", str(d), "--trials", str(trials), "--seed", str(seed),
                               "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of single-claim `verify` stdout (stderr for the usage error),
    # re-recorded, where the output comes from random draws, when trial t's
    # inputs became row t of the seed's stream: every flag on random diagonal
    # polynomials, a run over two blocks, float sparse and exact-rational user
    # polynomials, fixed partitions, failing runs (exit 1) and the list of
    # falsifiable flags
    @pytest.mark.parametrize("poly, argv, exit_code, digest", SINGLE_CLAIM_CASES)
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

    @pytest.mark.parametrize("argv", [argv for poly, argv, exit_code, _ in SINGLE_CLAIM_CASES
                                      if poly == "sparse3" and exit_code == 1])
    def test_trial_replays_the_counterexample(self, capsys, tmp_path, argv):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(GOLDEN_POLYS["sparse3"]))
        code, out, _ = run_cli(capsys, *argv.split(), "--poly", str(path))
        assert code == 1
        counterexample = strict_json(out)["counterexample"]
        k = counterexample["trial"]
        code, out, _ = run_cli(capsys, *argv.split(), "--poly", str(path), "--trial", str(k))
        assert code == 1
        replay = strict_json(out)
        assert replay["trials"] == 1 and replay["counterexample"] == counterexample

    @pytest.mark.parametrize("argv", ["verify hm --trials 5 --trial 5",
                                      "verify hm --trials 5 --trial -1"])
    def test_trial_outside_the_run_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 2 and out == ""
        assert err.startswith("error: trial must lie in [0, 5)")

    @pytest.mark.parametrize("argv", ["verify ortho --s 0 --trials 5",
                                      "verify schur --s 0",
                                      "verify all --s -3 --trials 5"])
    def test_degree_below_one_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 2 and out == ""
        assert err.startswith("error: --s must be >= 1")

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

    @pytest.mark.parametrize("argv", [
        "verify hm --s 2 --n 2 --trials 3",
        "verify all --s 2 --n 2 --trials 3",
        "verify falsify --claim hm --poly SQ",
        "poly oa-check --poly SQ",
    ])
    def test_negative_seed_is_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "sq.json"
        path.write_text(json.dumps(SQUARE_OF_SUM))
        code, out, err = run_cli(capsys, *argv.replace("SQ", str(path)).split(), "--seed", "-1")
        assert (code, out, err) == (2, "", "error: --seed must be >= 0, got -1\n")

    # sha256 of `verify falsify` and `poly oa-check` stdout: random-phase
    # witnesses early and late, inconclusive searches, exhaustive, random and
    # multi-block checks. The falsify cases were re-recorded when the random
    # phase got its own stream; the "weak" search at --budget 1500 then
    # ended inconclusive (exit 3) where it had found a witness, which the
    # same seed finds at trial 7204 of the default budget
    @pytest.mark.parametrize("poly, argv, exit_code, digest", [
        ("threeway", "verify falsify --claim hm --budget 5000 --seed 1", 0,
         "3e8d0051ab33f9eb6e7665ca5fb44614f250467c98519dc1a64ca0c6e1bbbd19"),
        ("weak", "verify falsify --claim cross --budget 1500 --seed 3", 3,
         "dc64fc02613ab5c1e9b2f7e25cf3afce394efa33cc8dfd9de6bafa9d5966fa39"),
        ("weak", "verify falsify --claim cross --budget 10000 --seed 3", 0,
         "2825caba16bfe2a0c6bf7cd9b429acdd1859c7a6c56e80060b616f6e8c50f2a1"),
        ("weaker", "verify falsify --claim cross --budget 1500 --seed 4", 3,
         "308b79165c0dfec4bc1af81a8ac0dc33e97e840f6e1eaf55dcfa1773e6da2b27"),
        ("wgm4", "verify falsify --claim wgm --partition 2,1,1 --budget 3000 --seed 11", 0,
         "f4ff004a4e2912e4d9e5ba138b0375dfa29ecc38f8fce5a0f27c621bbf46a49e"),
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

    # --format belongs to `verify all`, --claim and --budget to `verify
    # falsify`, --trial to a single claim's sweep
    @pytest.mark.parametrize("argv, flag", [
        ("verify hm --s 2 --n 2 --trials 3 --format csv --budget 5 --claim gm --poly SQ",
         "--format"),
        ("verify rmp --s 2 --n 2 --trials 3 --format json", "--format"),
        ("verify falsify --claim hm --poly SQ --format csv", "--format"),
        ("verify gm --s 2 --n 2 --trials 3 --claim gm", "--claim"),
        ("verify all --s 2 --n 2 --trials 3 --claim hm", "--claim"),
        ("verify schur --s 2 --n 2 --trials 3 --budget 5", "--budget"),
        ("verify all --s 2 --n 2 --trials 3 --budget 10000", "--budget"),
        ("verify all --s 2 --n 2 --trials 3 --trial 1", "--trial"),
        ("verify falsify --claim hm --poly SQ --trial 1", "--trial"),
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
