"""The README's library tour and every demo script run as written, the
README names every command and option of the command line and each of its
command lines parses, it quotes the parser's limits as the code sets them,
each module imports only from the layers below it, the private names
that cross modules are the ones listed here, and one module eliminates."""

import argparse
import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ncpoly import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_library_tour():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_readme_names_every_command_and_option():
    readme = (ROOT / "README.md").read_text()
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    parsers = [("ncpoly", parser)] + sorted(sub.choices.items())
    missing = [name for name, _ in parsers[1:] if f"ncpoly {name}" not in readme]
    for name, command in parsers:
        for action in command._actions:
            if action.option_strings and not isinstance(action, argparse._HelpAction):
                # the long form where there is one: "-o" alone says little
                options = [o for o in action.option_strings if o.startswith("--")]
                if not any(o in readme for o in options or action.option_strings):
                    missing.append(f"{name} {action.option_strings[0]}")
    assert not missing, missing


def test_readme_command_lines_parse():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.strip()]
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command line does not parse: ncpoly {shlex.join(argv)}")


def test_readme_quotes_the_parser_limits():
    from ncpoly import cli, freepoly

    readme = (ROOT / "README.md").read_text()
    for module, name in ((freepoly, "MAX_DEGREE"), (freepoly, "MAX_TERMS"),
                         (freepoly, "MAX_NESTING"), (cli, "MAX_BUILD_COST")):
        quoted = re.findall(rf"`{name}` \((\d+)\)", readme)
        assert quoted, name
        assert {int(value) for value in quoted} == {getattr(module, name)}, name


# errors < linalg < freepoly < realization < families, minimizer, evaluator
# < factorizer < cli < the package itself
LAYERS = {
    "errors": 0,
    "linalg": 1,
    "freepoly": 2,
    "realization": 3,
    "families": 4,
    "minimizer": 4,
    "evaluator": 4,
    "factorizer": 5,
    "cli": 6,
    "__init__": 7,
}


def package_imports(path):
    """The ncpoly modules a source file imports, by relative import."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:  # from . import x
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("ncpoly."))
    return names


def test_modules_import_only_lower_layers():
    sources = sorted((ROOT / "src" / "ncpoly").glob("*.py"))
    assert {path.stem for path in sources} == set(LAYERS)
    upward = [
        f"{path.stem} imports {name}"
        for path in sources
        for name in sorted(package_imports(path))
        if LAYERS[name] >= LAYERS[path.stem]
    ]
    assert not upward, upward
    imports = package_imports(ROOT / "src" / "ncpoly" / "realization.py")
    assert imports == {"errors", "freepoly", "linalg"}


def private_imports(path):
    """The private names a source file takes from other ncpoly modules.

    Both ``from .x import _y`` and ``x._y`` on a module bound by
    ``from . import x`` count, as ``"importer<-x._y"``.
    """
    tree = ast.parse(path.read_text())
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.update(f"{path.stem}<-{node.module}.{alias.name}"
                             for alias in node.names if alias.name.startswith("_"))
            else:
                modules.update(alias.asname or alias.name for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            names.add(f"{path.stem}<-{node.value.id}.{node.attr}")
    return names


def test_private_names_crossing_modules():
    crossing = set()
    for path in (ROOT / "src" / "ncpoly").glob("*.py"):
        crossing |= private_imports(path)
    assert crossing == {
        "cli<-evaluator._matrix_lines",
        "evaluator<-realization._frac_str",
        "evaluator<-realization._parse_frac",
        "factorizer<-realization._Target",
        "factorizer<-realization._zero_cell_rows",
        "factorizer<-minimizer._is_reduced",
        "minimizer<-realization._Work",
        "minimizer<-realization._zero_cell_rows",
    }


def test_one_elimination_kernel():
    """``linalg`` is the only module that takes ``math.gcd``: no other
    module keeps an elimination loop of its own."""
    users = set()
    for path in (ROOT / "src" / "ncpoly").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                if any(alias.name == "gcd" for alias in node.names):
                    users.add(path.stem)
            elif isinstance(node, ast.Attribute) and node.attr == "gcd":
                if isinstance(node.value, ast.Name) and node.value.id == "math":
                    users.add(path.stem)
    assert users == {"linalg"}


def test_readme_names_every_public_name():
    import ncpoly

    readme = (ROOT / "README.md").read_text()
    missing = [name for name in ncpoly.__all__
               if not re.search(rf"\b{name}\b", readme)]
    assert not missing, missing
