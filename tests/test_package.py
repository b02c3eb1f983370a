"""The package namespace, and which layer modules each entry point runs."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import algcheck

from conftest import FIXTURES

LAYERS = ("errors", "report", "grading", "core", "document", "operators", "constructions")
# modules the entry points may import beyond the layers; the import of the
# CLI leaves out dataclasses and inspect, which cost start-up time
MODULES = ("json", "argparse", "dataclasses", "inspect", "algcheck.cli")

PUBLIC = [
    "AlgcheckError", "DocumentError", "EvennessError", "HypothesisError",
    "IncompatibilityError", "InvalidRepresentationError", "MissingComponentError",
    "SearchSpaceError", "ShapeError", "SingularMapError",
    "GroupSpec", "MultiplierTable", "SignBicharacter", "delta_from_multiplier",
    "twist_epsilon", "validate_bicharacter", "validate_multiplier",
    "BilinearProduct", "EvenLinearMap", "GradedAlgebra", "GradedBasis",
    "check_epsilon_commutative", "check_hom_associative", "check_hom_leibniz",
    "check_hom_lie", "check_hom_poisson", "check_morphism", "commutator_bracket",
    "OperatorClaim", "check_nijenhuis_transfer", "check_operator", "search_diagonal_operators",
    "ConstructionResult", "averaging_twist_pairwise", "averaging_twist_power",
    "averaging_twist_untwisted", "centroid_twist", "multiplier_twist_delta",
    "multiplier_twist_symmetric", "nijenhuis_twist", "rota_baxter_twist",
    "tensor_with_commutative", "transport_along_bijection", "xi_twist",
    "AlgebraDocument", "format_rational", "parse_document", "parse_rational",
    "serialize_document",
    "AxiomReport", "Violation", "all_ok", "render_reports",
]


class TestNamespace:
    def test_all_is_the_public_names(self):
        assert algcheck.__all__ == PUBLIC

    def test_each_name_is_its_modules_own_object(self):
        for name in PUBLIC:
            obj = getattr(algcheck, name)
            assert obj.__module__.startswith("algcheck."), name
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name

    def test_dir_and_star_import(self):
        assert set(PUBLIC) <= set(dir(algcheck))
        namespace = {}
        exec("from algcheck import *", namespace)
        assert {k: v for k, v in namespace.items() if k != "__builtins__"} == {
            name: getattr(algcheck, name) for name in PUBLIC}

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="^module 'algcheck' has no attribute 'nope'$"):
            algcheck.nope

    def test_kinds_are_defined_once(self):
        assert algcheck.operators.KINDS is algcheck.KINDS
        assert algcheck.KINDS == ("centroid", "averaging", "rota-baxter", "nijenhuis")


def executed(code):
    """Run `code` in a fresh interpreter (-S, so that site's .pth files
    import nothing), then return the layer modules it executed and which
    of the MODULES it imported.  A layer registered but not yet run is a
    lazy module, whose type is not types.ModuleType."""
    probe = (f"{code}\nimport sys, types\n"
             f"print((sorted(m for m in {LAYERS!r} "
             "if type(sys.modules.get('algcheck.' + m)) is types.ModuleType), "
             f"sorted(m for m in {MODULES!r} if m in sys.modules)), file=sys.stderr)")
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")})
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stderr.splitlines()[-1])


def cli(*argv):
    return f"from algcheck.cli import main\nmain({list(argv)!r})"


def test_importing_the_cli_runs_no_layer():
    assert executed("import algcheck.cli") == ([], ["algcheck.cli", "argparse"])
    assert executed("import algcheck") == ([], [])


def test_each_command_runs_only_its_layers():
    example = str(FIXTURES / "example3_corrected.json")
    for command in ("validate", "report"):
        layers, _ = executed(cli(command, example))
        assert layers == ["core", "document", "errors", "grading", "report"], command
    layers, _ = executed(cli("check-operator", str(FIXTURES / "diff4.json"),
                             "--name", "d", "--kind", "averaging"))
    assert layers == ["core", "document", "errors", "grading", "operators", "report"]


def test_library_search_loads_no_cli():
    # as perfbench/search_job.py runs it
    code = ("from algcheck import parse_document, parse_rational, search_diagonal_operators\n"
            f"doc = parse_document(open({str(FIXTURES / 'rb2dim.json')!r}).read())\n"
            "search_diagonal_operators(doc.algebra, 'rota-baxter', "
            "[parse_rational(c) for c in ('0', '1', '-1')], weight=parse_rational('1'))")
    layers, imported = executed(code)
    assert "operators" in layers and "constructions" not in layers
    assert imported == ["json"]


def test_reload_keeps_each_executed_layer_and_public_name(monkeypatch):
    public = {name: getattr(algcheck, name) for name in PUBLIC}  # runs every layer
    layers = {m: sys.modules[f"algcheck.{m}"] for m in LAYERS}
    # reload rebinds every global of the package (KINDS to an equal new
    # tuple); monkeypatch puts the originals back afterwards
    for name, value in list(vars(algcheck).items()):
        monkeypatch.setattr(algcheck, name, value)
    importlib.reload(algcheck)
    assert all(sys.modules[f"algcheck.{m}"] is getattr(algcheck, m) is layers[m] for m in LAYERS)
    assert all(getattr(algcheck, name) is obj for name, obj in public.items())
