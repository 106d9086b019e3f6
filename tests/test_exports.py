import ast
from dataclasses import fields
from pathlib import Path

from rovermotion.config import RoverConfig
from rovermotion.terrain import PowerModelParams, TerrainParams

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rovermotion"

# The names the package re-exported until it bound only __version__: each has
# one import path, from the module that defines it.
FORMER_EXPORTS = {
    "config": ["BodyTwist", "LocomotionMode", "RoverConfig", "load_config",
               "wheel_positions"],
    "kinematics": ["inverse_kinematics"],
    "metrics": ["cost_of_transport", "energy_vs_yaw", "mean_cot"],
    "terrain": ["PowerModelParams", "Scenario", "TerrainParams", "apply_slip",
                "calibrate_power", "drive_power", "simulate_traverse"],
}


def test_the_package_binds_only_its_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    bound = [node for node in tree.body
             if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))]
    assert [ast.unparse(node) for node in bound] == ["__version__ = '0.1.0'"]
    for module, names in FORMER_EXPORTS.items():
        namespace: dict = {}
        exec(f"from rovermotion.{module} import {', '.join(names)}", namespace)
        assert set(names) <= set(namespace), module


_TRACK_PY = ("the step-by-step track integrator, a test oracle for "
             "kinematics.integrate_track that perfbench imports; it leaves the "
             "package when the benchmark moves it under the tests")
_SYNTHETIC = ("generates synthetic annotated frames for the tests, "
              "scripts/make_deflection_fixture.py and perfbench/workloads.py; it "
              "leaves the package when the benchmark imports it from elsewhere")
# What no command reaches, each with the reason it stays: the modules that no
# command imports, and the top-level functions and classes, `module.name`,
# that no command calls.
UNREACHED = {
    "_track_py": _TRACK_PY,
    "_track_py.integrate_track": _TRACK_PY,
    "deflection.project_wheel": _SYNTHETIC,
    "deflection._project": _SYNTHETIC,
    "deflection._circle_points_3d": _SYNTHETIC,
    "deflection.make_chord_annotation": _SYNTHETIC,
    "deflection.depth_for_fraction": _SYNTHETIC,
    "terrain.reposition_between": (
        "the closed form of the reposition phase's energy and duration, which "
        "the tests hold simulate_traverse to; a summary.txt energy balance would "
        "make a command call it"),
}


def _imported_modules(path: Path, modules: set[str]) -> set[str]:
    """The package modules that the source at `path` imports anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
        else:
            continue
        for name in names:
            package, _, module = name.partition(".")
            if package == "rovermotion" and module in modules:
                found.add(module)
    return found


# The modules `import rovermotion.cli` may import: each command imports numpy
# and the package modules it runs when it runs.
CLI_IMPORTS = {"__future__", "argparse", "sys", "typing", "rovermotion.errors"}


def _import_time_imports(path: Path) -> set[str]:
    """The modules the source at `path` imports when it is imported: outside
    functions and outside its `if TYPE_CHECKING:` block."""
    found, pending = set(), list(ast.parse(path.read_text()).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            pending.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or ""))
        pending.extend(ast.iter_child_nodes(node))
    return found


def test_no_module_imports_scipy():
    # numpy is the one runtime dependency; scipy is a test oracle only
    imports = [
        f"{path.stem}: {ast.unparse(node)}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "scipy" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0
        and (node.module or "").split(".")[0] == "scipy"
    ]
    assert imports == []


def test_cli_imports_only_what_parsing_needs():
    assert _import_time_imports(PACKAGE / "cli.py") <= CLI_IMPORTS


def _reached(roots: list[str], edges) -> set[str]:
    """The nodes that `roots` reach along `edges(node)`, the roots included."""
    reached, pending = set(), list(roots)
    while pending:
        node = pending.pop()
        if node not in reached:
            reached.add(node)
            pending.extend(edges(node))
    return reached


def test_every_module_is_reached_from_the_cli():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    reached = _reached(["cli"], lambda module: _imported_modules(
        PACKAGE / f"{module}.py", modules))
    assert sorted(modules - reached) == sorted(name for name in UNREACHED if "." not in name)


def _annotation_nodes(tree: ast.AST) -> set[int]:
    """The ids of the nodes in the type annotations of `tree`."""
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.returns]
    return {id(sub) for annotation in annotations for sub in ast.walk(annotation)}


def _call_graph() -> tuple[set[str], dict[str, set[str]]]:
    """The package's top-level functions and classes, `module.name`, and what
    each names outside its type annotations: a definition of its own module
    by name, another module's through a `from rovermotion.module import` or
    as an attribute of the module. The code a module runs when it is
    imported is the node `module`."""
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = {f"{module}.{node.name}" for module, tree in trees.items()
               for node in tree.body if isinstance(node, kinds)}
    edges = {}
    for module, tree in trees.items():
        names = {name.partition(".")[2]: name for name in defined
                 if name.startswith(f"{module}.")}
        modules = {}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("rovermotion")):
                continue
            for alias in node.names:
                target = f"{node.module}.{alias.name}".removeprefix("rovermotion.")
                bound = names if target in defined else modules
                bound[alias.asname or alias.name] = target
        annotations = _annotation_nodes(tree)
        for node in tree.body:
            named = edges.setdefault(
                f"{module}.{node.name}" if isinstance(node, kinds) else module, set())
            for sub in ast.walk(node):
                if id(sub) in annotations:
                    continue
                if isinstance(sub, ast.Name) and sub.id in names:
                    named.add(names[sub.id])
                elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                    attribute = f"{modules.get(sub.value.id)}.{sub.attr}"
                    if attribute in defined:
                        named.add(attribute)
    return defined, edges


def test_every_function_and_class_is_reached_from_a_command():
    # from each command, the console entry point and the import-time code
    defined, edges = _call_graph()
    roots = [name for name in edges if name.startswith("cli.cmd_") or "." not in name]
    reached = _reached([*roots, "cli.run"], lambda name: edges.get(name, ()))
    assert sorted(defined - reached) == sorted(name for name in UNREACHED if "." in name)
    assert all(UNREACHED.values())


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether `call` opens a file for writing: `open` or `.open` with a mode
    containing w, a, x or + (or one that is not a literal), or a
    `.write_text` or `.write_bytes` call."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        modes = call.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        modes = call.args[:1]
    else:
        return False
    modes += [keyword.value for keyword in call.keywords if keyword.arg == "mode"]
    return any(
        not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
        or set(mode.value) & set("wax+")
        for mode in modes
    )


def _function_calls(path: Path) -> list[tuple[str, ast.Call]]:
    """(`module.function`, call) for each call in the source at `path`, named
    by the innermost function around it."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{path.stem}.{node.name}"
        if isinstance(node, ast.Call):
            found.append((where, node))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def _writing_functions(path: Path) -> list[str]:
    """`module.function` for each call in the source at `path` that opens a
    file for writing."""
    return [where for where, call in _function_calls(path) if _opens_for_writing(call)]


def test_files_are_written_only_through_open_output():
    writers = [name for path in sorted(PACKAGE.glob("*.py"))
               for name in _writing_functions(path)]
    assert writers == ["config.open_output"]


def _called_name(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def test_steering_angles_become_rolling_directions_in_one_place():
    calls = [(where, call) for path in sorted(PACKAGE.glob("*.py"))
             for where, call in _function_calls(path)]
    # cos and sin of an angle: a wheel pose's rotation angle in from_rotvec,
    # and the steering angles only where they become rolling directions
    trig = {where for where, call in calls if _called_name(call) in ("cos", "sin")
            and any(isinstance(node, ast.Name) and "angle" in node.id
                    for arg in call.args for node in ast.walk(arg))}
    assert trig == {"kinematics.rolling_directions", "deflection.from_rotvec"}
    in_ik = [_called_name(call) for where, call in calls
             if where == "kinematics.inverse_kinematics"]
    assert in_ik.count("_normalize_steering") == 1
    # a wheel is a position in config.WHEELS order, not a key: no code
    # formats a per-wheel power key, "drive_fl" or "steer_fl"
    keys = [ast.unparse(node) for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.JoinedStr) and node.values
            and isinstance(node.values[0], ast.Constant)
            and node.values[0].value.startswith(("drive_", "steer_"))]
    assert keys == []


def test_value_types_check_themselves():
    # a parameter type checks its own invariants in __post_init__, so no
    # module has a separate check for callers to remember
    checkers = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("validate_")
    ]
    assert checkers == []


def _attributes_read_outside(class_name: str) -> set[str]:
    """The attribute names that package modules read, outside the body of
    the class `class_name`."""
    found, pending = set(), [ast.parse(path.read_text())
                             for path in sorted(PACKAGE.glob("*.py"))]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        pending.extend(ast.iter_child_nodes(node))
    return found


def test_every_setting_is_read_by_the_model():
    # a field that only its own checks read is a setting no output depends on
    unread = [f"{cls.__name__}.{field.name}"
              for cls in (RoverConfig, TerrainParams, PowerModelParams)
              for field in fields(cls)
              if field.name not in _attributes_read_outside(cls.__name__)]
    assert unread == []
