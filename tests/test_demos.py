"""The quick demos run to completion against the current library, and the
README's commands parse."""

import ast
import importlib.util
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ALL_DEMOS = tuple(sorted(n for n in os.listdir(os.path.join(ROOT, "demos")) if n.endswith(".py")))
# Demo 04 trains for 20k epochs and is left out for time.
QUICK_DEMOS = (
    "01_oracle_basics.py",
    "02_fermi_statistics.py",
    "03_sweep_and_surrogate.py",
    "05_autodiff_playground.py",
)


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ALL_DEMOS)
def test_demo_imports_exist(name):
    # every demo, the long ones included, imports only names the library has
    with open(os.path.join(ROOT, "demos", name), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wirepinn":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name) or importlib.util.find_spec(
                    f"{node.module}.{alias.name}"), f"{name}: {node.module}.{alias.name}"


def test_readme_commands_parse():
    # every `wirepinn ...` command in the README's sh blocks is one the CLI takes
    from wirepinn.cli import build_parser

    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), flags=re.M | re.S)
    commands = [line.split()[1:] for block in blocks
                for line in block.replace("\\\n", " ").splitlines() if line.startswith("wirepinn ")]
    assert commands
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: wirepinn {' '.join(argv)}")


def _readme():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def test_readme_layout_lists_every_module():
    # the "Library layout" table names exactly the modules in src/wirepinn
    section = _readme().split("## Library layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `wirepinn\.(\w+)`", section, flags=re.M)
    present = [name[:-3] for name in os.listdir(os.path.join(ROOT, "src", "wirepinn"))
               if name.endswith(".py") and not name.startswith("_")]
    assert sorted(listed) == sorted(present)


def test_readme_exit_codes_match_cli():
    # the README's "Exit codes:" sentence lists exactly cli's EXIT_* values
    from wirepinn import cli

    sentence = re.search(r"Exit codes:(.*?)\.(?:\s|$)", _readme(), flags=re.S).group(1)
    listed = [int(code) for code in re.findall(r"(?:^|,)\s+(\d+)\s", sentence)]
    assert listed == sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))
