import json
import os
import subprocess
import sys

import pytest

from algcheck import parse_document
from algcheck.cli import main

from conftest import FIXTURES, NON_BICHARACTER, WRONG_TYPED_FIELDS, line_over, rb2dim_with


def fx(name):
    return str(FIXTURES / f"{name}.json")


def written(tmp_path, raw):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(raw), encoding="utf-8")
    return str(p)


class TestValidate:
    def test_passing_fixture(self, capsys):
        assert main(["validate", fx("example3_corrected")]) == 0
        out = capsys.readouterr().out
        assert "hom-associativity" in out and "FAIL" not in out

    def test_failing_fixture(self, capsys):
        assert main(["validate", fx("example3_as_printed")]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_commutative_flag(self, capsys):
        assert main(["validate", "--commutative", fx("group_algebra_z2")]) == 0
        assert "epsilon-commutativity" in capsys.readouterr().out
        assert main(["validate", "--commutative", fx("example3_corrected")]) == 1

    def test_json_output(self, capsys):
        assert main(["validate", "--json", fx("rb2dim")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit"] == 0
        assert any(r["axiom"] == "hom-associativity" for r in payload["reports"])

    def test_multipliers_reported_by_name(self, capsys):
        assert main(["validate", fx("group_algebra_z2sq")]) == 0
        assert "sigma_asym:multiplier:cocycle" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["validate", "no-such-file.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{", encoding="utf-8")
        assert main(["validate", str(p)]) == 2

    @pytest.mark.parametrize("path,value", WRONG_TYPED_FIELDS)
    def test_wrongly_typed_field(self, tmp_path, capsys, path, value):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(rb2dim_with(path, value)), encoding="utf-8")
        assert main(["validate", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: shape") and "Traceback" not in err

    def test_bad_group_bound_variable(self, monkeypatch, capsys):
        monkeypatch.setenv("ALGCHECK_GROUP_BOUND", "abc")
        assert main(["validate", fx("rb2dim")]) == 2
        assert "ALGCHECK_GROUP_BOUND" in capsys.readouterr().err


class TestReport:
    def test_matches_committed_regression(self, capsys):
        assert main(["report", fx("example3_as_printed")]) == 1
        expected = (FIXTURES / "reports" / "example3_as_printed.validate.txt").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == expected


class TestCheckOperator:
    def test_rota_baxter_pass(self, capsys):
        assert main(["check-operator", fx("rb2dim"), "--name", "R",
                     "--kind", "rota-baxter", "--weight", "1/2"]) == 0

    def test_rota_baxter_wrong_weight(self, capsys):
        assert main(["check-operator", fx("rb2dim"), "--name", "R",
                     "--kind", "rota-baxter", "--weight", "2"]) == 1

    def test_nijenhuis_fail(self, capsys):
        assert main(["check-operator", fx("rb2dim"), "--name", "N10",
                     "--kind", "nijenhuis", "--product", "mu"]) == 1
        assert "nijenhuis:mu" in capsys.readouterr().out

    def test_averaging_derivation(self, capsys):
        assert main(["check-operator", fx("diff4"), "--name", "d",
                     "--kind", "averaging", "--power", "1"]) == 0

    def test_unknown_name(self, capsys):
        assert main(["check-operator", fx("rb2dim"), "--name", "nope",
                     "--kind", "centroid"]) == 2


class TestTwist:
    def test_rota_baxter_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "twisted.json"
        assert main(["twist", fx("rb2dim_poisson"), "--construction", "rota-baxter",
                     "--operator", "R", "--weight", "1/2", "-o", str(out)]) == 0
        assert main(["validate", str(out)]) == 0
        doc = parse_document(out.read_text(encoding="utf-8"))
        assert doc.metadata["construction"] == "rota-baxter"
        assert "PASS" in doc.metadata["certification"]
        assert "FAIL" not in doc.metadata.get("morphism", "")

    def test_special_identity_operator(self, tmp_path):
        out = tmp_path / "n.json"
        assert main(["twist", fx("rb2dim_poisson"), "--construction", "nijenhuis",
                     "--operator", "Id", "-o", str(out)]) == 0

    def test_centroid_records_findings(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["twist", fx("example3_corrected"), "--construction", "centroid",
                     "--operator", "beta2", "-o", str(out)]) == 0
        doc = parse_document(out.read_text(encoding="utf-8"))
        assert "morphism:mu=FAIL" in doc.metadata["findings"]
        assert main(["validate", str(out)]) == 0

    def test_gate_failure_exit_code(self, capsys):
        assert main(["twist", fx("example3_as_printed"), "--construction", "centroid",
                     "--operator", "Id"]) == 1
        assert "GATE FAILED" in capsys.readouterr().out

    def test_averaging_untwisted_counterexample(self, tmp_path, capsys):
        # faithful behavior: the construction emits the algebra and reports
        # the broken axiom with exit code 1
        out = tmp_path / "u.json"
        assert main(["twist", fx("group_algebra_z2"), "--construction",
                     "averaging-untwisted", "--operator", "proj", "-o", str(out)]) == 1
        doc = parse_document(out.read_text(encoding="utf-8"))
        assert "hom-associativity=FAIL" in doc.metadata["certification"]

    def test_multiplier_delta(self, tmp_path):
        out = tmp_path / "d.json"
        assert main(["twist", fx("group_algebra_z2sq"), "--construction",
                     "multiplier-delta", "--multiplier", "sigma_asym",
                     "-o", str(out)]) == 0
        assert main(["validate", str(out)]) == 0
        doc = parse_document(out.read_text(encoding="utf-8"))
        assert doc.algebra.epsilon.value((1, 0), (0, 1)) == -1

    def test_xi(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["twist", fx("group_algebra_z2"), "--construction", "xi",
                     "--xi", "2,0", "-o", str(out)]) == 0
        assert main(["validate", str(out)]) == 0

    @pytest.mark.parametrize("path, args", [
        ("rb2dim_poisson", ["--construction", "rota-baxter", "--operator", "R"]),
        ("rb2dim_poisson", ["--construction", "nijenhuis"]),
        ("rb2dim_poisson", ["--construction", "nijenhuis", "--operator", "nope"]),
        ("group_algebra_z2sq", ["--construction", "multiplier-sym"]),
        ("group_algebra_z2sq", ["--construction", "multiplier-sym", "--multiplier", "nope"]),
        ("group_algebra_z2", ["--construction", "xi"]),
        ("comm2", ["--construction", "tensor"]),
        ("rb2dim_poisson", ["--construction", "warp", "--operator", "R"]),
    ], ids=["missing-weight", "missing-operator", "unknown-operator", "missing-multiplier",
            "unknown-multiplier", "missing-xi", "missing-second", "unknown-construction"])
    def test_usage_errors(self, capsys, path, args):
        assert main(["twist", fx(path)] + args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    @pytest.mark.parametrize("argv, same_as", [
        (["twist", fx("example3_corrected"), "--construction", "transport", "--operator", "Id"],
         None),
        (["twist", fx("group_algebra_z2"), "--construction", "averaging-power",
          "--operator", "beta2", "--power", "1"], None),
        (["twist", fx("comm2"), "--construction", "tensor", "--second", fx("example3_corrected")],
         ["tensor", fx("comm2"), fx("example3_corrected")]),
    ], ids=["transport", "averaging-power", "tensor"])
    def test_document_on_stdout_or_output_file(self, tmp_path, capsys, argv, same_as):
        # without -o the document goes to stdout ahead of the report lines;
        # `same_as`, when given, writes the same document with -o
        out = tmp_path / "out.json"
        assert main(argv + ["-o", str(out)]) == 0
        reports = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8") + reports
        if same_as:
            other = tmp_path / "other.json"
            assert main(same_as + ["-o", str(other)]) == 0
            assert other.read_bytes() == out.read_bytes()


class TestTensor:
    def test_tensor_subcommand(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["tensor", fx("comm2"), fx("example3_corrected"),
                     "-o", str(out)]) == 0
        assert main(["validate", str(out)]) == 0
        doc = parse_document(out.read_text(encoding="utf-8"))
        assert doc.algebra.dim == 6

    def test_incompatible_factors(self, capsys):
        assert main(["tensor", fx("unital_line"), fx("group_algebra_z2")]) == 2
        assert "error:" in capsys.readouterr().err


class TestCommutationFactorGate:
    """Every construction but xi refuses an input whose eps is not a bicharacter."""

    @pytest.mark.parametrize("raw", NON_BICHARACTER)
    @pytest.mark.parametrize("argv", [
        lambda p: ["twist", p, "--construction", "nijenhuis", "--operator", "Id"],
        lambda p: ["twist", p, "--construction", "transport", "--operator", "Id"],
        lambda p: ["tensor", p, p],
    ], ids=["nijenhuis", "transport", "tensor"])
    def test_gate_fails_and_writes_nothing(self, tmp_path, capsys, raw, argv):
        out = tmp_path / "out.json"
        assert main(argv(written(tmp_path, raw)) + ["-o", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "GATE FAILED: commutation factor is not a bicharacter"
        assert lines[1:] and all(line.startswith("FAIL bicharacter:") for line in lines[1:])
        assert not out.exists()

    def test_validate_reports_the_failing_laws(self, tmp_path, capsys):
        table, sign = (p.values[0] for p in NON_BICHARACTER)
        assert main(["validate", written(tmp_path, table)]) == 1
        assert capsys.readouterr().out.splitlines()[:5] == [
            "PASS bicharacter:skew-symmetry",
            "FAIL bicharacter:additivity-left: 5 violation(s); "
            "first at ((0,), (1,), (1,)): lhs=(1), rhs=(4)",
            "FAIL bicharacter:additivity-right: 5 violation(s); "
            "first at ((0,), (0,), (1,)): lhs=(2), rhs=(4)",
            "FAIL bicharacter:identity-element: 1 violation(s); "
            "first at ((1,),): lhs=(1/2), rhs=(2)",
            "PASS bicharacter:diagonal-sign",
        ]
        assert main(["validate", written(tmp_path, sign)]) == 1
        assert capsys.readouterr().out.splitlines()[0] == (
            "FAIL bicharacter:skew-symmetry: 6 violation(s); "
            "first at ((0, 1), (1, 0)): lhs=(-1), rhs=(1)")

    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["check-operator", "--name", "one", "--kind", "centroid"],
        ["twist", "--construction", "transport", "--operator", "Id"],
    ], ids=["validate", "check-operator", "twist"])
    def test_ill_defined_sign_matrix_is_a_shape_error(self, tmp_path, capsys, argv):
        # eps(a, b) = (-1)^(ab) on Z_3 depends on the representatives of a and b
        raw = line_over([3], {"matrix": [[1]]}, operators={"one": [["1"]]})
        assert main(argv[:1] + [written(tmp_path, raw)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: shape at epsilon")
        assert "Traceback" not in captured.err and captured.out == ""


class TestConstructionJson:
    RB = ["twist", fx("rb2dim_poisson"), "--construction", "rota-baxter",
          "--operator", "R", "--weight", "1/2", "--json"]

    def test_pass_with_output_file(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(self.RB + ["-o", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["certification", "exit", "findings", "morphism"]
        assert payload["exit"] == 0
        assert [r["axiom"] for r in payload["certification"]] == [
            "hom-associativity", "epsilon-skew-symmetry", "hom-jacobi", "hom-leibniz"]
        assert payload["morphism"] and all(r["ok"] for r in payload["morphism"])
        assert payload["findings"] == []
        assert out.exists()

    def test_document_goes_into_the_object_without_output_file(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["tensor", fx("comm2"), fx("example3_corrected"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["certification", "document", "exit", "findings", "morphism"]
        assert main(["tensor", fx("comm2"), fx("example3_corrected"), "-o", str(out)]) == 0
        assert payload["document"] == json.loads(out.read_text(encoding="utf-8"))

    def test_gate_failure(self, tmp_path, capsys):
        raw = NON_BICHARACTER[0].values[0]
        assert main(["tensor", written(tmp_path, raw), written(tmp_path, raw), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["exit", "gate", "reports"]
        assert payload["gate"] == "commutation factor is not a bicharacter"
        assert payload["exit"] == 1
        assert [r["axiom"] for r in payload["reports"]] == [
            "bicharacter:additivity-left", "bicharacter:additivity-right",
            "bicharacter:identity-element"]


def test_import_leaves_out_dataclasses_and_inspect():
    # -S keeps site and its .pth files from importing either module
    src = str(FIXTURES.parent / "src")
    code = ("import sys, algcheck.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
