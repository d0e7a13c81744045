"""The examples and the README cannot drift from the config surface.

Every ``examples/*.py`` runs to completion in-process, and every python
code block in README.md parses and passes ``connect()``, ``serve()``,
``serve_tcp()``, ``CrowdConfig`` and ``AdmissionConfig`` only keywords
they accept.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import pathlib
import re
import runpy
import warnings

import pytest

from repro import CrowdConfig, Server, connect, serve, serve_tcp
from repro.errors import CrowdDBWarning
from repro.server import AdmissionConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _parameters(function) -> set[str]:
    return {
        name
        for name, parameter in inspect.signature(function).parameters.items()
        if parameter.kind not in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD)
    }


def _fields(config) -> set[str]:
    return {field.name for field in dataclasses.fields(config)}


#: callable name -> the keywords it accepts; ``serve``/``serve_tcp``
#: forward their ``**connect_kwargs`` to ``Server`` and on to ``connect``
ACCEPTED = {
    "connect": _parameters(connect),
    "serve": _parameters(serve) | _parameters(connect),
    "serve_tcp": _parameters(serve_tcp) | _parameters(Server)
    | _parameters(connect),
    "CrowdConfig": _fields(CrowdConfig),
    "AdmissionConfig": _fields(AdmissionConfig),
}


def readme_python_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text()
    return re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(path, capsys):
    with warnings.catch_warnings():
        # the demos provoke vote ties and unbounded scans on purpose
        warnings.simplefilter("ignore", CrowdDBWarning)
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_python_blocks_use_real_keywords():
    blocks = readme_python_blocks()
    assert blocks
    checked = 0
    unknown = []
    for number, block in enumerate(blocks):
        tree = ast.parse(block, filename=f"README.md python block {number}")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            function = node.func
            name = getattr(function, "id", getattr(function, "attr", None))
            if name not in ACCEPTED:
                continue
            checked += 1
            unknown.extend(
                f"block {number}: {name}({keyword.arg}=...)"
                for keyword in node.keywords
                if keyword.arg is not None
                and keyword.arg not in ACCEPTED[name]
            )
    assert checked
    assert not unknown, unknown
