"""Layout checks on the package sources, read with ``ast`` (nothing is imported)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "shortlinks"
MODULES = sorted(SRC.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    found = []
    for fn in ast.walk(parse(path)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{fn.name}:{node.lineno}" for node in ast.walk(fn)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_simplicial_is_the_bottom_layer():
    imported = {node.module for node in ast.walk(parse(SRC / "simplicial.py"))
                if isinstance(node, ast.ImportFrom) and node.level}
    assert not imported & {"partitions", "symmetry", "_bijections"}


def test_metric_reuses_only_the_group_routine():
    imported = {node.module for node in ast.walk(parse(SRC / "metric.py"))
                if isinstance(node, ast.ImportFrom) and node.level}
    assert imported <= {"errors", "exactlp", "_bijections"}


def test_metric_builds_the_graph_chain_in_one_helper():
    # every search reads Graph._chain through _automorphism_chain, so none
    # can build a second chain of the same graph
    tree = parse(SRC / "metric.py")

    def references(node) -> int:
        return sum(isinstance(name, ast.Name) and name.id == "_stabilizer_chain"
                   for name in ast.walk(node))

    users = [fn.name for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and references(fn)]
    assert users == ["_automorphism_chain"]
    assert references(tree) == 1


def test_symmetry_does_not_consult_the_classifier():
    # are_isomorphic is the oracle that classify's verdicts are checked against
    imported = {node.module for node in ast.walk(parse(SRC / "symmetry.py"))
                if isinstance(node, ast.ImportFrom) and node.level}
    assert "partitions" not in imported


def test_build_kp_folds_without_the_closed_form():
    # table's verified column checks build_kp against the product of (|P_j|+1)
    fn = next(node for node in parse(SRC / "partitions.py").body
              if isinstance(node, ast.FunctionDef) and node.name == "build_kp")
    named = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
    named |= {f"{node.value.id}.{node.attr}" for node in ast.walk(fn)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    assert not named & {"kp_summary", "product_dual", "math.prod", "prod"}


@pytest.mark.parametrize("name", ["parse_complex", "parse_graph", "parse_quadrillage"])
def test_parsers_leave_validation_to_the_constructors(name):
    # formats._read is the one place where a constructor's ValueError
    # becomes a FormatError; a parser that compared or raised would be a
    # second validator of the same input
    fn = next(node for node in parse(SRC / "formats.py").body
              if isinstance(node, ast.FunctionDef) and node.name == name)
    found = [type(node).__name__ for node in ast.walk(fn)
             if isinstance(node, (ast.Raise, ast.Compare, ast.Try))]
    assert found == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "simplicial.py"],
                         ids=lambda p: p.name)
def test_only_simplicial_reads_the_complex_caches(path):
    # a link read from a cache slot elsewhere works only when some earlier
    # call happened to fill it; _chain is left out, symmetry owns that slot
    slots = {"_ridges", "_faces", "_sizes", "_links"}
    found = [f"{node.attr}:{node.lineno}" for node in ast.walk(parse(path))
             if isinstance(node, ast.Attribute) and node.attr in slots]
    assert found == []


def test_partitions_reads_simplicial_through_public_names():
    # the face table's mask layout belongs to simplicial; classify reads
    # only a complex's vertices, facets, dim and facet count
    tree = parse(SRC / "partitions.py")
    private = [f"{alias.name}:{node.lineno}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "simplicial"
               for alias in node.names if alias.name.startswith("_")]
    private += [f"{node.attr}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr.startswith("_")]
    assert private == []
