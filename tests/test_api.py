"""The public API: the names ``locc_ladder`` exports.

A name added to or removed from ``__all__`` has to be added to or removed
from this list as well, so that the change is a reviewed edit.  The same
holds for the fields of ``IntermediateChain``, which the transcript's
closed ``chain`` section and the benchmark read, and for the signature of
``sample_trajectories``.  The layering rules
between the package's modules are pinned here too, read from their source,
among them the import boundary that keeps numpy out of a process that never
verifies a plan, and so is the rule that every unchecked construction names
its check.
"""

import ast
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

import locc_ladder
from locc_ladder import IntermediateChain, oracle

PUBLIC_NAMES = [
    "BlockTooLarge",
    "CASE_I",
    "CASE_II",
    "ChainInvariantViolated",
    "DiagonalKraus",
    "DimensionMismatch",
    "DimensionTooSmall",
    "EPS_CMP",
    "EPS_COMPLETE",
    "EPS_NORM",
    "EPS_ZERO",
    "FrequencyReport",
    "FullState",
    "IndexRangeInvalid",
    "InfeasibilityCertificate",
    "IntermediateChain",
    "LadderInfeasible",
    "LadderPlan",
    "LoccLadderError",
    "MajorizationReport",
    "MeasurementStep",
    "NegativeEntry",
    "NormalizationUnderflow",
    "NotMajorized",
    "NotNormalized",
    "NotSorted",
    "OmegaNotMajorizing",
    "OmegaNotSorted",
    "OutcomeBranch",
    "ProblemSpec",
    "SchmidtVector",
    "SolverInvariantViolated",
    "SourceHasZero",
    "TRIVIAL",
    "TWO_OUTCOME",
    "TrajectoryRecord",
    "Transcript",
    "VerificationReport",
    "ZeroBlockNorm",
    "apply_correction",
    "apply_kraus",
    "choose_omega",
    "effective_rank",
    "embed_step",
    "greatest_first_chain",
    "intermediate_chain",
    "load_schema",
    "majorizes",
    "plan_full",
    "run_trajectory",
    "sample_trajectories",
    "solve2",
    "solve3",
    "validate",
    "verify_plan",
]


def test_all_is_the_pinned_list():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert locc_ladder.__all__ == PUBLIC_NAMES


def test_every_name_resolves():
    missing = [name for name in locc_ladder.__all__ if not hasattr(locc_ladder, name)]
    assert missing == []


ORACLE_NAMES = [
    "FrequencyReport",
    "FullState",
    "TrajectoryRecord",
    "VerificationReport",
    "apply_correction",
    "apply_kraus",
    "run_trajectory",
    "sample_trajectories",
    "verify_plan",
]


def test_star_import_binds_every_name():
    namespace = {}
    exec("from locc_ladder import *", namespace)
    assert [name for name in PUBLIC_NAMES if name not in namespace] == []


def test_oracle_names_are_the_oracles_own():
    # Resolved on first access (the package's __getattr__), not copied.
    for name in ORACLE_NAMES:
        assert getattr(locc_ladder, name) is getattr(oracle, name), name


def test_dir_lists_the_public_names():
    assert "__all__" in dir(locc_ladder)
    assert set(PUBLIC_NAMES) <= set(dir(locc_ladder))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError) as info:
        locc_ladder.nope
    assert str(info.value) == "module 'locc_ladder' has no attribute 'nope'"


def test_sample_trajectories_signature_is_pinned():
    # verified is keyword-only, so that a report is never passed by position.
    params = inspect.signature(locc_ladder.sample_trajectories).parameters.values()
    assert [(p.name, p.kind.name, p.default) for p in params] == [
        ("plan", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("shots", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("seed", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("verified", "KEYWORD_ONLY", None),
    ]


def test_intermediate_chain_fields_are_pinned():
    # states is derived from layouts, not stored beside them.
    assert [f.name for f in fields(IntermediateChain)] == ["layouts", "m", "tilde_values", "windows"]


def _module_tree(name):
    return ast.parse((Path(locc_ladder.__file__).parent / f"{name}.py").read_text())


def _package_imports(tree):
    """(module, name) for each name tree imports from the package, with the
    module written bare; a module imported whole is (module, "*")."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(
                (a.name.removeprefix("locc_ladder."), "*")
                for a in node.names
                if a.name.startswith("locc_ladder")
            )
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("locc_ladder")
        ):
            module = (node.module or "").removeprefix("locc_ladder").lstrip(".")
            if module:
                out.update((module, a.name) for a in node.names)
            else:
                out.update((a.name, "*") for a in node.names)
    return out


def test_oracle_takes_only_plan_data_from_the_planner():
    # The oracle is the independent check of a plan: from the planner's
    # modules it may take the plan's types and the input tolerances, never
    # planner code.
    allowed = {
        ("ladder", "LadderPlan"),
        ("solvers", "DiagonalKraus"),
        ("schmidt", "EPS_NORM"),
        ("schmidt", "EPS_ZERO"),
        ("schmidt", "MAX_ORACLE_DIM"),
    }
    imports = _package_imports(_module_tree("oracle"))
    assert {(m, name) for m, name in imports if m != "errors"} <= allowed


def _import_time_imports(tree):
    """The Import and ImportFrom nodes that run when the module is imported:
    outside function bodies and outside ``if TYPE_CHECKING:`` blocks."""
    found = []

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.append(node)
            elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                visit(node.orelse)
            else:
                visit(ast.iter_child_nodes(node))

    visit(tree.body)
    return found


def _imports_numpy(tree):
    return any(
        (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy")
        for node in ast.walk(tree)
    )


def _package_modules():
    return sorted(path.stem for path in Path(locc_ladder.__file__).parent.glob("*.py"))


def test_numpy_and_the_oracle_load_on_first_use():
    # The planner, the transcript and the CLI are scalar Python: only the
    # oracle and the generators import numpy, and no module imports the
    # oracle when it is itself imported (the package and the CLI do so
    # inside a function; transcript.py names the report types for
    # annotations alone), so a run that never verifies never loads numpy.
    def imported(name):
        nodes = _import_time_imports(_module_tree(name))
        return {module for module, _ in _package_imports(ast.Module(body=nodes, type_ignores=[]))}

    modules = _package_modules()
    assert [name for name in modules if _imports_numpy(_module_tree(name))] == ["oracle", "sampling"]
    assert [name for name in modules if "oracle" in imported(name)] == []
    assert _imports_numpy(ast.parse("def f():\n    from numpy.linalg import norm\n"))
    assert not _imports_numpy(ast.parse("import numbers\nfrom .numpyish import x\n"))
    sample = (
        "from . import ladder\n"
        "if TYPE_CHECKING:\n    from .oracle import A\nelse:\n    from .oracle import B\n"
        "class C:\n    from .solvers import D\n"
        "def f():\n    from .oracle import E\n"
    )
    found = [ast.unparse(node) for node in _import_time_imports(ast.parse(sample))]
    assert found == ["from . import ladder", "from .oracle import B", "from .solvers import D"]


def test_transcript_sections_are_built_in_transcript_alone():
    # The transcript's shape is decided in transcript.py; the planner's and
    # the oracle's classes hold data only.
    writers = [
        f"{module}.{node.name}"
        for module in ("ladder", "solvers", "oracle", "schmidt")
        for node in ast.walk(_module_tree(module))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "to_dict" for f in node.body)
    ]
    assert writers == []


def _trusted_sites(source):
    """(line, text, named) for each use of a private _trusted constructor in
    source; named when a "# checked:" comment is in the run of comment lines
    and _trusted uses directly above it."""
    lines = source.splitlines()
    sites = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Attribute) and node.attr == "_trusted"):
            continue
        above = []
        for text in map(str.strip, reversed(lines[: node.lineno - 1])):
            if not (text.startswith("#") or "._trusted" in text):
                break
            above.append(text)
        named = any(text.startswith("# checked:") for text in above)
        sites.append((node.lineno, lines[node.lineno - 1].strip(), named))
    return sites


def test_every_unchecked_construction_names_its_check():
    # SchmidtVector._trusted and DiagonalKraus._trusted skip every check, so
    # each use must name the upstream check that makes them redundant.
    sites = [
        (path.name, *site)
        for path in sorted(Path(locc_ladder.__file__).parent.glob("*.py"))
        for site in _trusted_sites(path.read_text())
    ]
    assert sites and [site for site in sites if not site[-1]] == []
    bare = "x = 1\n# why\nv = map(SchmidtVector._trusted, a)\n"
    named = "# checked: a, d\nv = SchmidtVector._trusted(a)\nw = DiagonalKraus._trusted(d)\n"
    assert _trusted_sites(bare) == [(3, "v = map(SchmidtVector._trusted, a)", False)]
    assert [site[-1] for site in _trusted_sites(named)] == [True, True]
