import subprocess
import sys
from pathlib import Path

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
