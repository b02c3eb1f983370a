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

    @pytest.mark.parametrize("argv, err", [
        (["twist", fx("rb2dim_poisson"), "--construction", "nijenhuis"],
         "error: usage: this construction needs --operator\n"),
        (["twist", fx("rb2dim_poisson"), "--construction", "nijenhuis", "--operator", "nope"],
         "error: unknown-operator: no operator named 'nope'\n"),
        (["twist", fx("group_algebra_z2sq"), "--construction", "multiplier-sym"],
         "error: usage: this construction needs --multiplier\n"),
        (["twist", fx("group_algebra_z2sq"), "--construction", "multiplier-sym",
          "--multiplier", "nope"],
         "error: unknown-multiplier: no multiplier named 'nope'\n"),
        (["check-operator", fx("rb2dim"), "--name", "nope", "--kind", "centroid"],
         f"error: unknown-operator at {fx('rb2dim')}: no operator named 'nope'\n"),
    ], ids=["missing-operator", "unknown-operator", "missing-multiplier", "unknown-multiplier",
            "check-operator-unknown-name"])
    def test_named_entry_errors(self, capsys, argv, err):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("raw, args, message", [
        ("example3_as_printed", ["averaging-power", "--operator", "Id", "--power", "5"],
         "error: power must lie in [0, 4], got 5\n"),
        (dict(NON_BICHARACTER[0].values[0], operators={"zero": [["0"]]}),
         ["transport", "--operator", "zero"], "error: map is not invertible\n"),
    ], ids=["averaging-power", "transport"])
    def test_argument_errors_come_before_the_gates(self, tmp_path, capsys, raw, args, message):
        # both inputs fail their gate; the bad argument is reported first
        path = fx(raw) if isinstance(raw, str) else written(tmp_path, raw)
        assert main(["twist", path, "--construction", *args]) == 2
        assert capsys.readouterr() == ("", message)

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


# ---------------------------------------------------------------------------
# the console script's entry(): flush, then os._exit; stdout, stderr and the
# exit code must be those of main() in process

ENTRY = "from algcheck.cli import entry; entry()"


def run_entry(argv, stdout=subprocess.PIPE, unbuffered=False):
    """entry() in a fresh interpreter, its stdout block-buffered unless
    `unbuffered`, so that output left unflushed at exit would be lost."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(FIXTURES.parent / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-c", ENTRY, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env)


@pytest.mark.parametrize("argv, code", [
    (["validate", fx("example3_corrected")], 0),
    (["report", fx("example3_as_printed")], 1),
    (["validate", "no-such-file.json"], 2),
    (["validate", "--json", fx("rb2dim")], 0),
], ids=["validate", "report", "missing-file", "validate-json"])
def test_entry_matches_main(capsys, argv, code):
    done = run_entry(argv)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (
        code, captured.out.encode("utf-8"), captured.err.encode("utf-8"))
    if argv[0] == "report":
        assert done.stdout == (FIXTURES / "reports" / "example3_as_printed.validate.txt").read_bytes()
    if code == 2:
        assert done.stderr.startswith(b"error:")


def test_entry_writes_the_output_file_in_full(tmp_path, capsys):
    argv = ["twist", fx("rb2dim_poisson"), "--construction", "rota-baxter",
            "--operator", "R", "--weight", "1/2", "-o"]
    done = run_entry(argv + [str(tmp_path / "entry.json")])
    assert main(argv + [str(tmp_path / "main.json")]) == 0
    assert (done.returncode, done.stdout) == (0, capsys.readouterr().out.encode("utf-8"))
    assert (tmp_path / "entry.json").read_bytes() == (tmp_path / "main.json").read_bytes()


def test_entry_usage_error_exits_through_argparse(capsys):
    argv = ["validate"]
    done = run_entry(argv)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert (done.returncode, done.stderr) == (2, capsys.readouterr().err.encode("utf-8"))


def test_entry_help_matches_main(capsys):
    argv = ["validate", "--help"]
    done = run_entry(argv)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: algcheck validate")
    assert (done.returncode, done.stdout, done.stderr) == (0, captured.out.encode("utf-8"), b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_entry_on_a_full_device(unbuffered):
    # buffered, the flush in entry() fails; unbuffered, print() in main() does
    for argv in (["validate", fx("example3_corrected")], ["validate", "--help"]):
        with open("/dev/full", "wb") as full:
            done = run_entry(argv, stdout=full, unbuffered=unbuffered)
        assert (done.returncode, done.stderr) == (
            2, b"error: io at <stdout>: [Errno 28] No space left on device\n"), argv


def test_entry_on_a_closed_pipe():
    read, write = os.pipe()
    os.close(read)
    with open(write, "wb") as pipe:
        done = run_entry(["validate", fx("example3_corrected")], stdout=pipe)
    assert (done.returncode, done.stderr) == (2, b"error: io at <stdout>: [Errno 32] Broken pipe\n")


def test_entry_without_stdout_keeps_the_verdict():
    # with fd 1 closed, sys.stdout is None and print() writes nothing, --help
    # included (argparse alone would write it to stderr)
    for argv, code in ((["report", fx("example3_as_printed")], 1), (["validate", "--help"], 0)):
        done = subprocess.run([sys.executable, "-c", ENTRY, *argv],
                              stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1),
                              env={**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")})
        assert (done.returncode, done.stderr) == (code, b""), argv
