import ast
import importlib
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from steptardy.cli import _build_parser
from steptardy.core import instance_from_json
from steptardy.harness import CSV_HEADER, ExperimentConfig

ROOT = Path(__file__).parent.parent


def test_demo_walkthrough_runs():
    """The demo imports about ten public names and runs every method through
    ``harness.solve``: a deleted name must fail here, and the two exact
    methods must both give the optimum."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "demo_walkthrough.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    values = [
        line[28:].split()[0]
        for line in proc.stdout.splitlines()
        if line.startswith(("bb ", "exact "))
    ]
    assert values == ["572", "572"]


def test_readme_examples_parse():
    """Every command, config, instance and CSV header README.md shows is one
    the code accepts: a renamed flag or subcommand, a config value of the
    wrong type or a changed CSV header fails here."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    commands = [
        line.strip()
        for lang, text in blocks
        if lang == "sh"
        for line in text.replace("\\\n", " ").splitlines()
        if line.strip().startswith("steptardy ")
    ]
    assert commands
    parser = _build_parser()
    for command in commands:
        # an optional flag is shown as [--flag value]
        argv = shlex.split(re.sub(r"\[([^]]*)\]", r"\1", command))[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
    payloads = [text for lang, text in blocks if lang == "json"]
    [instance] = [text for text in payloads if '"jobs"' in text]
    instance_from_json(instance)
    configs = [text for text in payloads if '"jobs"' not in text]
    assert configs
    for config in configs:
        ExperimentConfig.from_json(config)
    assert [text.strip() for lang, text in blocks if text.startswith("group,")] == [CSV_HEADER]


def _resolve(dotted):
    """The object a dotted ``steptardy...`` name names: the longest prefix
    that imports as a module, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(dotted)


def _defines(path, test):
    """Whether the test file at path defines ``Class::test`` or ``test``."""
    scope = ast.parse(path.read_text()).body
    for name in test.split("::"):
        found = [node for node in scope if getattr(node, "name", None) == name]
        if not found:
            return False
        scope = getattr(found[0], "body", [])
    return True


def test_readme_pointers_resolve():
    """Every pointer in README.md's inline code leads somewhere: a path with a
    slash exists, a ``file.py::Class::test`` is defined in that file (under
    tests/ unless the path says otherwise), a dotted ``steptardy.`` name
    imports, and each name after `_kernel.c`: is a function of _kernel.c."""
    text = (ROOT / "README.md").read_text()
    prose = re.sub(r"^```.*?^```$", "", text, flags=re.M | re.S)
    spans = [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", prose)]
    paths = [s for s in spans if re.fullmatch(r"[\w.-]+(/[\w.-]+)+", s)]
    tests = [s.split("::", 1) for s in spans if re.fullmatch(r"[\w/.-]+\.py(::\w+)+", s)]
    dotted = [s for s in spans if re.fullmatch(r"steptardy(\.\w+)+", s)]
    kernel_lists = re.findall(r"`_kernel\.c`:\s+((?:`\w+`(?:,\s*)?)+)", prose)
    kernel = [name for names in kernel_lists for name in re.findall(r"`(\w+)`", names)]
    assert paths and tests and dotted and kernel
    missing = [p for p in paths if not (ROOT / p).exists()]
    for file, test in tests:
        path = ROOT / file if (ROOT / file).exists() else ROOT / "tests" / file
        if not (path.exists() and _defines(path, test)):
            missing.append(f"{file}::{test}")
    for name in dotted:
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    source = (ROOT / "src" / "steptardy" / "_kernel.c").read_text()
    defined = set(re.findall(r"^static [^;{]*?\b(\w+)\(", source, re.M))
    missing += [f"_kernel.c: {name}" for name in kernel if name not in defined]
    assert missing == []
