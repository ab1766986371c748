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
    """The demo imports a dozen public names: a deleted one must fail here."""
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
        if line.startswith(("brute force optimum ", "branch and bound "))
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
