"""The package and every CLI command run without scipy.

scipy is a test-only dependency (the oracles in other test files use its
``expm``). Each check runs in a fresh interpreter, so modules that the test
session itself has imported do not hide an import from the package. No CLI
process loads OpenSSL's libcrypto either, ``sample`` included: the metadata
hash is CPython's built-in SHA-256, and the process entry ``cli.run`` blocks
``_hashlib`` before ``sample``'s ``numpy.random`` would load it through
``secrets``. Importing ``qcslab.cli`` blocks nothing. ``sample`` does not
import ``numpy.ma``, which ``np.percentile`` would load for its bootstrap
interval. No CLI process loads click: the parser is the standard library's
argparse. The in-process runs go through ``tests/cli_runner.py``.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cli_runner import CliRunner
from qcslab.cli import main

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _run(code: str, cwd) -> subprocess.CompletedProcess:
    return _python(["-c", code], cwd)


def _python(args: list, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(TESTS), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_import_loads_no_scipy(tmp_path):
    result = _run(
        "import sys, qcslab, qcslab.cli\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])",
        tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_loads_no_libcrypto(tmp_path):
    result = _run("import sys, qcslab.cli\nsys.exit('_hashlib' in sys.modules)", tmp_path)
    assert result.returncode == 0, result.stderr


def test_sample_loads_no_numpy_ma(tmp_path):
    (tmp_path / "th.json").write_text(json.dumps(
        {"schema": 1, "kind": "thermal", "params": {"q": 0.3}}))
    result = _run(
        "import sys\n"
        "from cli_runner import CliRunner\n"
        "from qcslab.cli import main\n"
        "r = CliRunner().invoke(main, ['sample', '--state', 'th.json', '--shots', '2000'])\n"
        "assert r.exit_code == 0, r.output\n"
        "sys.exit('numpy.ma' in sys.modules)", tmp_path)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("args", [["qcs", "--state", "th.json", "--route", "two-copy"],
                                  ["--version"]], ids=["qcs", "version"])
def test_cli_process_loads_no_click(tmp_path, args):
    """``python -v -m qcslab.cli`` names each module the process loads."""
    (tmp_path / "th.json").write_text(json.dumps(
        {"schema": 1, "kind": "thermal", "params": {"q": 0.3}}))
    result = _python(["-v", "-m", "qcslab.cli", *args], tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]
    loaded = set(re.findall(r"^import '([^']+)' # ", result.stderr, re.MULTILINE))
    assert "numpy" in loaded
    assert not [name for name in loaded if name.partition(".")[0] == "click"]


SPECS = {
    "coh.json": {"schema": 1, "kind": "coherent", "params": {"alpha": [0.3, 0.4]}},
    "disp.json": {"schema": 1, "kind": "displaced",
                  "params": {"base": {"kind": "fock", "params": {"n": 1}}, "beta": [0.5, 0.0]}},
    "th.json": {"schema": 1, "kind": "thermal", "params": {"q": 0.3}},
    "sq.json": {"schema": 1, "kind": "squeezed_vacuum", "params": {"r": 0.3}},
}

COMMANDS = [
    ["qcs", "--state", "coh.json", "--route", "all"],
    ["qcs", "--state", "disp.json", "--route", "all"],
    ["qcs", "--state", "th.json", "--route", "all"],
    ["qcs", "--state", "sq.json", "--route", "all"],
    ["compare", "--state", "disp.json"],
    ["purity", "--state", "sq.json"],
    ["pn-dist", "--state", "th.json", "--format", "json"],
    ["overlap", "--state", "coh.json", "--state", "disp.json"],
    ["sample", "--state", "th.json", "--shots", "2000", "--resamples", "50"],
    ["figure2", "--out", "fig2", "--cutoff", "16", "--n-max", "6"],
]


def test_every_command_runs_with_scipy_blocked(tmp_path):
    """``sys.modules["scipy"] = None`` makes any ``import scipy`` or
    ``from scipy... import`` raise, including one inside a function body."""
    for name, doc in SPECS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    result = _run(
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from cli_runner import CliRunner\n"
        "from qcslab.cli import main\n"
        "runner = CliRunner()\n"
        f"for args in {COMMANDS!r}:\n"
        "    r = runner.invoke(main, args)\n"
        "    print(json.dumps([args, r.exit_code, repr(r.exception), r.output[-300:]]))\n",
        tmp_path)
    assert result.returncode == 0, result.stderr
    runs = [json.loads(line) for line in result.stdout.splitlines()]
    assert [args for args, *_ in runs] == COMMANDS
    failed = [run for run in runs if run[1] != 0]
    assert not failed, failed


# one request per command, each run as its own process through the CLI entry
ENTRY_COMMANDS = {
    "qcs": ["qcs", "--state", "coh.json", "--route", "all"],
    "purity": ["purity", "--state", "sq.json"],
    "pn-dist": ["pn-dist", "--state", "th.json", "--format", "json"],
    "compare": ["compare", "--state", "disp.json"],
    "overlap": ["overlap", "--state", "coh.json", "--state", "disp.json"],
    "figure2": ["figure2", "--out", "fig2", "--cutoff", "16", "--n-max", "6"],
    "sample": ["sample", "--state", "th.json", "--shots", "2000", "--seed", "7",
               "--resamples", "50"],
}


@pytest.mark.parametrize("command", ENTRY_COMMANDS)
def test_cli_process_loads_no_libcrypto(tmp_path, command):
    """``python -v -m qcslab.cli``: no command loads ``_hashlib``, and only
    ``sample`` loads ``numpy.random`` (numpy imports it lazily, on the first
    ``np.random``). ``-v`` names each module that is loaded; ``-X importtime``
    would also list the blocked ``import _hashlib`` attempts that raise.
    ``sample``'s answer is the in-process runner's."""
    for name, doc in SPECS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    args = ENTRY_COMMANDS[command]
    result = _python(["-v", "-m", "qcslab.cli", *args], tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]
    loaded = set(re.findall(r"^import '([^']+)' # ", result.stderr, re.MULTILINE))
    assert "numpy" in loaded and "click" not in loaded
    assert "_hashlib" not in loaded
    assert ("numpy.random" in loaded) == (command == "sample")
    if command == "sample":
        in_process = CliRunner().invoke(
            main, [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in args])
        assert in_process.exit_code == 0, in_process.output
        docs = [json.loads(text) for text in (result.stdout, in_process.output)]
        assert docs[0]["estimate"] == docs[1]["estimate"]
        assert docs[0]["metadata"]["config_hash"] == docs[1]["metadata"]["config_hash"]
