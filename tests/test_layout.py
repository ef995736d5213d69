"""The layout of `src/fncalc`: which lane lives where, and a ratchet on the
public definitions that only the tests reach.

The scan reads the source, not the imported modules.  A definition is a
public top-level `def` or `class`, or a public method of a class that is
not a value type (`VALUE_TYPES`).  A definition is test-only when no
module of `src/fncalc` other than `__init__.py` names it, as a name or an
attribute.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "fncalc"

# The value types of the calculus, whose public methods the ratchet skips:
# they are per-term arithmetic, and equality, hashing and the operators
# reach them without naming them.
VALUE_TYPES = {
    "ModelSpace", "CoefficientFunction", "DifferentialForm", "VectorField",
    "VectorValuedForm", "GaussianRational",
}

# Every test-only definition, with the reason it stays in `src/`: a
# library operator of the public calculus, a step of ROADMAP item 2 that a
# report will carry, or an oracle that tests hold a fast lane against.
TEST_ONLY = {
    "bracket.vf_bracket": "library operator: the Lie bracket of vector fields",
    "exterior.coefficient_deriv": "library operator: Lie derivative along a frame field",
    "exterior.evaluate": "library operator: a form on a tuple of vector fields",
    "exterior.laplacian": "oracle: the Laplacian block of the reference torus lane",
    "exterior.sharp": "library operator: the musical isomorphism on 1-forms",
    "exterior.volume_form": "library operator: the volume form of a model space",
    "g2.multisymplectic_check": "ROADMAP item 2 report step: multisymplecticity",
    "g2.numeric_bracket_of_chi": "oracle: the finite-difference probe of [chi, chi]",
    "g2.projection_matrix_rank": "ROADMAP item 2 report step: the G2 type ranks",
    "grammar.parse_vvform": "library operator: the parser of tangent-valued forms",
    "linfty.FlatAssociativeModel.ambient": "library operator: the model's ambient space",
    "scalars.imaginary": "library operator: the constructor of i * num / den",
    "scalars.rational": "library operator: the constructor of num / den",
}


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def public_definitions(modules: dict) -> dict:
    """{module.name or module.Class.method: the bare name} of every public
    definition the ratchet counts."""
    out = {}
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out[f"{mod}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef) and node.name not in VALUE_TYPES:
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        out[f"{mod}.{node.name}.{sub.name}"] = sub.name
    return out


def unreferenced_definitions(modules: dict) -> set:
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for mod, tree in modules.items()
        if mod != "__init__"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    return {qual for qual, name in public_definitions(modules).items() if name not in named}


def _imports(tree) -> list[tuple[str, str]]:
    """(module, name) of every import in a module; `from . import x` gives
    ("", "x") and `import x` gives ("x", "")."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out += [(node.module or "", alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name, "") for alias in node.names]
    return out


def test_the_test_only_definitions_are_pinned():
    # a new test-only definition, one that gains a caller in src/ and one
    # that disappears all change the set
    assert unreferenced_definitions(_modules()) == set(TEST_ONLY)


def test_the_scan_sees_a_new_test_only_definition():
    modules = _modules()
    modules["g2"].body.append(ast.parse("def orphan():\n    pass\n").body[0])
    assert unreferenced_definitions(modules) == set(TEST_ONLY) | {"g2.orphan"}
    # and a pinned name that gains a caller leaves the set
    modules["torus"].body.append(ast.parse("vf_bracket").body[0])
    assert "bracket.vf_bracket" not in unreferenced_definitions(modules)


def test_linalg_is_the_integer_lane_only():
    tree = _modules()["linalg"]
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined == {
        "int_ranks", "int_matmul", "_max_abs", "_int_array", "_python_ints"
    }


def test_lanes_import_only_what_they_run():
    modules = _modules()
    assert not [i for i in _imports(modules["g2"]) if "linalg" in i]
    assert not [i for i in _imports(modules["torus"]) if i[0] in ("bracket", "fncalc.bracket")]
    for mod, tree in modules.items():
        assert not [i for i in _imports(tree) if "tests" in i[0] or "reference" in i], mod


def test_the_reference_lanes_left_the_mode_calculus():
    tree = _modules()["torus"]
    (calc,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ModeCalculus"]
    methods = {n.name for n in calc.body if isinstance(n, ast.FunctionDef)}
    assert not methods & {"block", "anticommutation_check", "one_form_kernel_check", "mode_summary"}


def test_the_stabilizer_of_a_constant_form_is_g2_structure_algebra():
    # the orbit certificate takes it from g2, on g2's one Python-int elimination
    modules = _modules()
    (calc,) = [n for n in modules["torus"].body if isinstance(n, ast.ClassDef) and n.name == "ModeCalculus"]
    assert "_stabilizer" not in {n.name for n in calc.body if isinstance(n, ast.FunctionDef)}
    g2 = {node.name for node in modules["g2"].body if isinstance(node, ast.FunctionDef)}
    assert {"_eliminate", "stabilizer"} <= g2
