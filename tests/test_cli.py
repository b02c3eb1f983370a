import json
import os
import subprocess
import sys

import pytest

from algcheck import parse_document
from algcheck.cli import CONSTRUCTIONS, main

from conftest import (
    FIXTURES,
    NON_BICHARACTER,
    WRONG_TYPED_FIELDS,
    edited,
    line_over,
    rb2dim_text_with,
    rb2dim_with,
)


def fx(name):
    return str(FIXTURES / f"{name}.json")


REPORT = (FIXTURES / "reports" / "example3_as_printed.validate.txt").read_bytes()
RB_TWIST = ["twist", fx("rb2dim_poisson"), "--construction", "rota-baxter",
            "--operator", "R", "--weight", "1/2"]

# the options each twist construction reads, and a value for each option
READS = {
    "xi": {"xi"}, "multiplier-sym": {"multiplier"}, "multiplier-delta": {"multiplier"},
    "transport": {"operator"}, "centroid": {"operator"}, "averaging-pair": {"operator"},
    "averaging-untwisted": {"operator"}, "averaging-power": {"operator", "power"},
    "nijenhuis": {"operator"}, "rota-baxter": {"operator", "weight"}, "tensor": {"second"},
}
OPTION_VALUES = {"operator": "R", "multiplier": "sigma", "weight": "1", "power": "1", "xi": "1,0",
                 "second": "other.json"}


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

    @pytest.mark.parametrize("command", ["validate", "report"])
    def test_commutative_flag_needs_mu(self, tmp_path, capsys, command):
        path = written(tmp_path, edited("rb2dim_poisson", lambda raw: raw.pop("mu")))
        assert main([command, "--commutative", path]) == 2
        assert capsys.readouterr() == ("", "error: algebra has no mu\n")
        assert main([command, path]) == 0

    def test_json_output(self, capsys):
        assert main(["validate", "--json", fx("rb2dim")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit"] == 0
        assert any(r["axiom"] == "hom-associativity" for r in payload["reports"])

    def test_multipliers_reported_by_name(self, capsys):
        assert main(["validate", fx("group_algebra_z2sq")]) == 0
        assert "sigma_asym:multiplier:cocycle" in capsys.readouterr().out

    def test_malformed_file(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{", encoding="utf-8")
        assert main(["validate", str(p)]) == 2

    @pytest.mark.parametrize("path,value,location,text", WRONG_TYPED_FIELDS)
    def test_wrongly_typed_field(self, tmp_path, capsys, path, value, location, text):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(rb2dim_with(path, value)), encoding="utf-8")
        assert main(["validate", str(p)]) == 2
        assert capsys.readouterr() == ("", f"error: {text}\n")

    def test_rational_with_trailing_newline(self, tmp_path, capsys):
        raw = rb2dim_with(("mu", 0, 3), "1\n")
        assert main(["validate", written(tmp_path, raw)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bad-rational at mu[0]: ")
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    def test_bad_group_bound_variable(self, monkeypatch, capsys):
        # the bound is read as the file format reads integers: a sign and
        # ASCII digits; int() would take the last three
        for raw in ("abc", "\u0661", "1_0", " 12"):
            monkeypatch.setenv("ALGCHECK_GROUP_BOUND", raw)
            assert main(["validate", fx("rb2dim")]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: ALGCHECK_GROUP_BOUND must be an integer, got {raw!r}\n"
            assert captured.out == ""

    def test_empty_basis(self, tmp_path, capsys):
        raw = rb2dim_with(("basis", "degrees"), [])
        assert main(["validate", written(tmp_path, raw)]) == 2
        assert capsys.readouterr().err == (
            "error: shape at basis.degrees: basis must have dimension >= 1\n")


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

    @pytest.mark.parametrize("power", ["\u0661", "1_0", " 12"],
                             ids=["arabic-indic", "underscore", "space"])
    def test_power_is_ascii_digits(self, capsys, power):
        # int() reads these as 1, 10 and 12; the file format's integers do not
        for argv in (["check-operator", fx("diff4"), "--name", "d", "--kind", "averaging"],
                     ["twist", fx("diff4"), "--construction", "averaging-power",
                      "--operator", "d"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--power", power])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.endswith(f"error: argument --power: not an integer: {power!r}\n")


class TestTwist:
    def test_rota_baxter_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "twisted.json"
        assert main(RB_TWIST + ["-o", str(out)]) == 0
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

    # Each refused argv with its exact stderr, by the id the tables below use.
    ERRORS = {
        "missing-weight": (
            ["twist", fx("rb2dim_poisson"), "--construction", "rota-baxter", "--operator", "R"],
            "error: usage: rota-baxter construction needs --weight\n"),
        "missing-operator": (
            ["twist", fx("rb2dim_poisson"), "--construction", "nijenhuis"],
            "error: usage: nijenhuis construction needs --operator\n"),
        "unknown-operator": (
            ["twist", fx("rb2dim_poisson"), "--construction", "nijenhuis", "--operator", "nope"],
            f"error: unknown-operator at {fx('rb2dim_poisson')}: no operator named 'nope'\n"),
        "missing-multiplier": (
            ["twist", fx("group_algebra_z2sq"), "--construction", "multiplier-sym"],
            "error: usage: multiplier-sym construction needs --multiplier\n"),
        "unknown-multiplier": (
            ["twist", fx("group_algebra_z2sq"), "--construction", "multiplier-sym",
             "--multiplier", "nope"],
            f"error: unknown-multiplier at {fx('group_algebra_z2sq')}: "
            "no multiplier named 'nope'\n"),
        "missing-xi": (
            ["twist", fx("group_algebra_z2"), "--construction", "xi"],
            "error: usage: xi construction needs --xi\n"),
        "missing-second": (
            ["twist", fx("comm2"), "--construction", "tensor"],
            "error: usage: tensor construction needs --second\n"),
        "unknown-construction": (
            ["twist", fx("rb2dim_poisson"), "--construction", "warp", "--operator", "R"],
            "error: unknown-construction: no construction named 'warp'\n"),
        "check-operator-unknown-name": (
            ["check-operator", fx("rb2dim"), "--name", "nope", "--kind", "centroid"],
            f"error: unknown-operator at {fx('rb2dim')}: no operator named 'nope'\n"),
    }

    @pytest.mark.parametrize("case", [
        "missing-weight", "missing-operator", "unknown-operator", "missing-multiplier",
        "unknown-multiplier", "missing-xi", "missing-second", "unknown-construction"])
    def test_usage_errors(self, capsys, case):
        """Every twist option a construction needs, and the construction
        name itself, is refused with exit 2 and one exact message."""
        argv, err = self.ERRORS[case]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("case", [
        "missing-operator", "unknown-operator", "missing-multiplier", "unknown-multiplier",
        "check-operator-unknown-name"])
    def test_named_entry_errors(self, capsys, case):
        """A named operator or multiplier, absent or not in the document, is
        refused the same way by every subcommand that reads one."""
        argv, err = self.ERRORS[case]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("raw, argv, message", [
        ("example3_as_printed",
         ["twist", "--construction", "averaging-power", "--operator", "Id", "--power", "5"],
         "error: power must lie in [0, 4], got 5\n"),
        (dict(NON_BICHARACTER[0].values[0], operators={"zero": [["0"]]}),
         ["twist", "--construction", "transport", "--operator", "zero"],
         "error: map is not invertible\n"),
        ("example3_corrected",
         ["check-operator", "--name", "Id", "--kind", "nijenhuis", "--power", "-5"],
         "error: power must lie in [0, 4], got -5\n"),
    ], ids=["averaging-power", "transport", "nijenhuis-power"])
    def test_argument_errors_come_before_the_gates(self, tmp_path, capsys, raw, argv, message):
        # both twist inputs fail their gate; the bad argument is reported
        # first.  The power bound holds for every operator kind.
        path = fx(raw) if isinstance(raw, str) else written(tmp_path, raw)
        command, *args = argv
        assert main([command, path, *args]) == 2
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("argv, same_as", [
        (["twist", fx("example3_corrected"), "--construction", "transport", "--operator", "Id"],
         None),
        (["twist", fx("group_algebra_z2"), "--construction", "averaging-power",
          "--operator", "beta2", "--power", "1"], None),
        (["twist", fx("comm2"), "--construction", "tensor", "--second", fx("example3_corrected")],
         ["tensor", fx("comm2"), fx("example3_corrected")]),
        (["twist", fx("group_algebra_z2"), "--construction", "averaging-power", "--operator", "beta2"],
         ["twist", fx("group_algebra_z2"), "--construction", "averaging-power",
          "--operator", "beta2", "--power", "0"]),
    ], ids=["transport", "averaging-power", "tensor", "averaging-power-default"])
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


    @pytest.mark.parametrize("construction, option", [
        (c, o) for c, reads in READS.items() for o in OPTION_VALUES if o not in reads])
    def test_unread_option_is_a_usage_error(self, capsys, construction, option):
        # refused before the document loads: the path does not exist
        argv = ["twist", "no-such-file.json", "--construction", construction,
                f"--{option}", OPTION_VALUES[option]]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: usage: {construction} does not read --{option}\n")

    @pytest.mark.parametrize("construction", sorted(READS))
    def test_read_options_are_accepted(self, capsys, construction):
        argv = ["twist", "no-such-file.json", "--construction", construction]
        for option in sorted(READS[construction]):
            argv += [f"--{option}", OPTION_VALUES[option]]
        assert main(argv + ["-o", "unused.json", "--json"]) == 2
        assert capsys.readouterr().err.startswith("error: io at no-such-file.json: ")

    def test_every_construction_has_its_options_listed(self):
        assert set(READS) == set(CONSTRUCTIONS)

    def test_unread_options_are_named_together(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["twist", fx("rb2dim_poisson"), "--construction", "nijenhuis", "--operator", "R",
                     "--power", "99", "--xi", "1,2", "--multiplier", "zz", "-o", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: usage: nijenhuis does not read --multiplier, --power, --xi\n")
        assert not out.exists()


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
    RB = RB_TWIST + ["--json"]

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


# ---------------------------------------------------------------------------
# the CLI contract in real processes.  `python -W error -m algcheck.cli` runs
# entry() (flush stdout, then os._exit) through runpy, with warnings as
# errors; its exit code, stdout, stderr and output files must be those of
# main() in process.  The console script and perfbench start entry() through
# ENTRY instead, which test_entry_without_stdout_keeps_the_verdict runs.

ENTRY = "from algcheck.cli import entry; entry()"
BOUND = "ALGCHECK_GROUP_BOUND"


def run_entry(argv, stdout=subprocess.PIPE, unbuffered=False):
    """The CLI in a fresh interpreter, its stdout block-buffered unless
    `unbuffered`, so that output left unflushed at exit would be lost."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(FIXTURES.parent / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-W", "error", "-m", "algcheck.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, env=env)


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """A directory of fixture copies with one change each, as JSON values or
    as text, and rb-twist.json, the output of RB_TWIST."""
    path = tmp_path_factory.mktemp("docs")
    for name, raw in {
        "bracket-only": edited("rb2dim_poisson", lambda raw: raw.pop("mu")),
        "Mu": edited("example3_as_printed", lambda raw: raw.update(Mu=raw.pop("mu"))),
        "two-epsilons": rb2dim_with(("epsilon", "table"), [["1", "1"], ["1", "-1"]]),
        "repeated-cell": edited("rb2dim", lambda raw: raw["mu"].append(raw["mu"][0][:3] + ["5"])),
        "repeated-key": rb2dim_text_with('"operators": {', '"R": [["5", "0"], ["0", "5"]], '),
        "two-id": edited("example3_corrected", lambda raw: raw["operators"].update(
            Id=[["2" if i == j else "0" for j in range(3)] for i in range(3)])),
        "zero-modulus": rb2dim_with(("group", "moduli"), [0]),
    }.items():
        text = raw if isinstance(raw, str) else json.dumps(raw)
        (path / f"{name}.json").write_text(text, encoding="utf-8")
    assert main(RB_TWIST + ["-o", str(path / "rb-twist.json")]) == 0
    return path


def names_bound(done, out):
    """A row check: the error names the variable, not a document."""
    return done.stderr.startswith(f"error: {BOUND} must be ".encode())


def records_its_own_evidence(done, out):
    """A row check: a twist of RB_TWIST's output keeps the input's lambda,
    but not the morphism summary that only RB_TWIST recorded."""
    metadata = parse_document((out / "t.json").read_text(encoding="utf-8")).metadata
    return metadata == {
        "certification": "hom-associativity=PASS;epsilon-skew-symmetry=PASS;hom-jacobi=PASS;"
                         "hom-leibniz=PASS",
        "construction": "averaging-pair", "lambda": "1/2"}


def validates(name):
    """A row check: `validate` on the output file `name` exits 0."""
    return lambda done, out: run_entry(["validate", str(out / name)]).returncode == 0


# argv ({out} is an empty directory, {docs} the one above), environment, exit
# code and a check of the process's result and output directory
@pytest.mark.parametrize("argv, env, code, check", [
    pytest.param(["validate", fx("example3_corrected")], {}, 0, None, id="validate"),
    pytest.param(["report", fx("example3_as_printed")], {}, 1,
                 lambda done, out: done.stdout == REPORT, id="report"),
    pytest.param(["validate", "no-such-file.json"], {}, 2, None, id="missing-file"),
    pytest.param(["validate", "--json", fx("rb2dim")], {}, 0, None, id="validate-json"),
    pytest.param(["validate"], {}, 2, None, id="usage-error"),
    pytest.param(["validate", "--help"], {}, 0,
                 lambda done, out: done.stdout.startswith(b"usage: algcheck validate"), id="help"),
    pytest.param(["check-operator", fx("diff4"), "--name", "d", "--kind", "averaging"], {}, 0,
                 None, id="check-operator"),
    pytest.param(RB_TWIST + ["-o", "{out}/t.json"], {}, 0, validates("t.json"), id="twist-output"),
    pytest.param(RB_TWIST + ["--json"], {}, 0, lambda done, out: json.loads(done.stdout),
                 id="twist-json"),
    pytest.param(["tensor", fx("comm2"), fx("example3_corrected"), "-o", "{out}/t.json"], {}, 0,
                 validates("t.json"), id="tensor-output"),
    pytest.param(["validate", fx("example3_corrected")], {BOUND: "abc"}, 2, names_bound,
                 id="bound-not-an-integer"),
    pytest.param(["validate", fx("comm2")], {BOUND: "0"}, 2, names_bound, id="bound-below-one"),
    pytest.param(["check-operator", fx("diff4"), "--name", "d", "--kind", "averaging",
                  "--power", "\u0661"], {}, 2, None, id="power-arabic-indic"),
    pytest.param(["twist", fx("rb2dim_poisson"), "--construction", "nijenhuis", "--operator", "R",
                  "--power", "99", "--xi", "1,2", "--multiplier", "zz", "-o", "{out}/unread.json"],
                 {}, 2, lambda done, out: not (out / "unread.json").exists(), id="unread-options"),
    pytest.param(["validate", "{docs}/bracket-only.json"], {}, 0, None, id="bracket-only"),
    pytest.param(["validate", "--commutative", "{docs}/bracket-only.json"], {}, 2, None,
                 id="bracket-only-commutative"),
    pytest.param(["validate", "{docs}/Mu.json"], {}, 2, None, id="unknown-field"),
    pytest.param(["validate", "{docs}/two-epsilons.json"], {}, 2, None, id="epsilon-given-twice"),
    pytest.param(["validate", "{docs}/repeated-cell.json"], {}, 2, None, id="repeated-cell"),
    pytest.param(["check-operator", "{docs}/repeated-key.json", "--name", "R", "--kind",
                  "rota-baxter", "--weight", "1/2"], {}, 2, None, id="repeated-key"),
    pytest.param(["check-operator", fx("rb2dim"), "--name", "R", "--kind", "centroid",
                  "--weight", "5"], {}, 2, None, id="unread-weight"),
    pytest.param(["check-operator", fx("rb2dim"), "--name", "R", "--kind", "nijenhuis",
                  "--power", "1"], {}, 2, None, id="unread-power"),
    pytest.param(["check-operator", fx("comm2"), "--name", "Id", "--kind", "centroid"], {}, 0,
                 None, id="id-is-the-identity"),
    pytest.param(["validate", "{docs}/two-id.json"], {}, 2, None, id="id-not-the-identity"),
    pytest.param(["check-operator", "{docs}/two-id.json", "--name", "Id", "--kind", "centroid"],
                 {}, 2, None, id="id-not-the-identity-check-operator"),
    pytest.param(["twist", "{docs}/two-id.json", "--construction", "transport",
                  "--operator", "Id"], {}, 2, None, id="id-not-the-identity-twist"),
    pytest.param(["twist", "{docs}/rb-twist.json", "--construction", "averaging-pair",
                  "--operator", "Id", "-o", "{out}/t.json"], {}, 0, records_its_own_evidence,
                 id="twist-of-a-twist"),
    pytest.param(["validate", "{docs}/zero-modulus.json"], {}, 2,
                 lambda done, out: done.stderr == b"error: shape at group.moduli: "
                                                  b"cyclic factor sizes must be >= 1: (0,)\n",
                 id="zero-modulus"),
])
def test_entry_matches_main(tmp_path, monkeypatch, capsys, docs, argv, env, code, check):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    outs = [tmp_path / "process", tmp_path / "main"]
    process_argv, main_argv = ([a.format(out=out, docs=docs) for a in argv] for out in outs)
    for out in outs:
        out.mkdir()
    done = run_entry(process_argv)
    try:
        assert main(main_argv) == code
    except SystemExit as exc:  # argparse: usage errors and --help
        assert exc.code == code
    captured = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (
        code, captured.out.encode("utf-8"), captured.err.encode("utf-8"))
    process_files, main_files = ({p.name: p.read_bytes() for p in out.iterdir()} for out in outs)
    assert process_files == main_files
    # exit 2 is one error line and no stdout, and nothing ends in a traceback
    assert b"Traceback" not in done.stderr
    assert code != 2 or (done.stdout, done.stderr.count(b"error: ")) == (b"", 1)
    assert check is None or check(done, outs[0])


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
