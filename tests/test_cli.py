"""CLI surface: output schemas, exit codes, determinism."""

import hashlib
import json

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
        assert code == 0
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

    def test_usage_error(self, capsys):
        assert run_cli(capsys, "verify", "nonsense")[0] == 2
        assert run_cli(capsys, "verify", "falsify")[0] == 2
