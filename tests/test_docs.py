"""The demos and the README's Python code and flags use the package's current API.

The demos take seconds to minutes each, so nothing here runs them: each
script is parsed with ``ast`` and every name it takes from ``firmglass`` is
looked up, and every call to a ``firmglass`` callable is bound against the
callable's signature.  A renamed export or a removed parameter fails here,
and so does a README flag that no ``firmglass`` subcommand takes, a flag
that the README never names, a README name such as
``meanfield.mean_field_map`` that its module lacks, a namespace list in
the README that is not ``firmglass.__all__``, and a README CSV header that
is not the one sweeps write.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import firmglass
from firmglass import cli
from firmglass.experiment import CSV_COLUMNS

ROOT = Path(__file__).resolve().parents[1]


def readme_python():
    """The README's ```python blocks, joined into one source text."""
    readme = (ROOT / "README.md").read_text()
    return "\n".join(chunk.split("```", 1)[0]
                     for chunk in readme.split("```python\n")[1:])


SOURCES = {
    **{path.name: path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))},
    "README.md": readme_python(),
}


def firmglass_names(tree):
    """Map each local name bound by a firmglass import to the object it names.

    Raises AttributeError or ImportError for a name the package lacks.
    """
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "firmglass":
                    module = importlib.import_module(alias.name)
                    if alias.asname is None:
                        module = importlib.import_module("firmglass")
                    names[alias.asname or "firmglass"] = module
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] != "firmglass":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def resolve(node, names):
    """The firmglass object an expression names, or None if it names none."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = resolve(node.value, names)
        if inspect.ismodule(owner):
            return getattr(owner, node.attr)
    return None


def test_sources_were_found():
    assert len(SOURCES) > 1
    assert "fg.SweepSpec(" in SOURCES["README.md"]


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_code_uses_only_the_current_api(name):
    tree = ast.parse(SOURCES[name], filename=name)
    names = firmglass_names(tree)
    assert names, f"{name} imports nothing from firmglass"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            # looks the attribute up, so a missing module attribute fails
            resolve(node, names)
        if not isinstance(node, ast.Call):
            continue
        target = resolve(node.func, names)
        if not callable(target) or any(isinstance(arg, ast.Starred) for arg in node.args):
            continue
        keywords = {kw.arg: None for kw in node.keywords if kw.arg is not None}
        try:
            inspect.signature(target).bind_partial(*node.args, **keywords)
        except TypeError as exc:
            pytest.fail(f"{name}:{node.lineno}: {ast.unparse(node.func)}: {exc}")


def test_readme_names_only_current_cli_flags():
    parser = cli.build_parser()
    [commands] = [action.choices for action in parser._actions
                  if isinstance(action.choices, dict)]
    options = {flag for command in commands.values()
               for flag in command._option_string_actions}
    # pip's own flags are not the package's
    named = {flag
             for line in (ROOT / "README.md").read_text().splitlines()
             if not line.lstrip().startswith("pip ")
             for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", line)}
    assert "--threads" in named
    assert named <= options, f"README names flags no subcommand takes: {sorted(named - options)}"
    unnamed = {flag for flag in options if flag.startswith("--")} - named - {"--help"}
    assert not unnamed, f"README does not name these flags: {sorted(unnamed)}"


def test_readme_lists_the_namespace_and_names_only_what_exists():
    readme = (ROOT / "README.md").read_text()
    after = readme.split("The top-level `firmglass` namespace holds", 1)[1]
    listing = after.split("\n\n")[1]
    assert listing.startswith("* ")
    assert sorted(re.findall(r"`(\w+)`", listing)) == sorted(firmglass.__all__)
    qualified = re.findall(r"`(core|experiment|meanfield|riskstats|cli)\.(\w+)`", readme)
    assert ("core", "advance") in qualified
    missing = [f"{module}.{name}" for module, name in qualified
               if not hasattr(importlib.import_module(f"firmglass.{module}"), name)]
    assert not missing, f"README names what the package lacks: {missing}"


def test_readme_csv_header_is_the_written_one():
    readme = (ROOT / "README.md").read_text()
    after = readme.split("CSV columns are fixed:", 1)[1]
    assert re.match(r"\s*`([^`]*)`", after)[1] == ", ".join(CSV_COLUMNS)
