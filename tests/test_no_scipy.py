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
argparse. A CLI process loads ``phase_space`` and ``sampling`` only where its
command calls them, and importing ``qcslab`` loads neither. The in-process
runs go through ``tests/cli_runner.py``.
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
    ["figure2", "--out", "fig2", "--n-max", "6"],
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
    "figure2": ["figure2", "--out", "fig2", "--n-max", "6"],
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


LAZY_MODULES = {"qcslab.phase_space", "qcslab.sampling"}
# one request per command, and which of phase_space and sampling its process loads
COMMAND_MODULES = {
    "qcs-two-copy": (["qcs", "--state", "th.json", "--route", "two-copy"], set()),
    "purity": (ENTRY_COMMANDS["purity"], set()),
    "pn-dist": (ENTRY_COMMANDS["pn-dist"], set()),
    "figure2": (ENTRY_COMMANDS["figure2"], set()),
    "compare": (ENTRY_COMMANDS["compare"], {"qcslab.phase_space"}),
    "overlap": (ENTRY_COMMANDS["overlap"], {"qcslab.phase_space"}),
    "sample": (ENTRY_COMMANDS["sample"], {"qcslab.sampling"}),
}


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_cli_process_loads_only_its_commands_modules(tmp_path, command):
    """``python -v -m qcslab.cli``: ``phase_space`` and ``sampling`` are
    imported only by the routes and commands that call them, so a process
    compiles neither unless its command reads it."""
    for name, doc in SPECS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    args, expected = COMMAND_MODULES[command]
    result = _python(["-v", "-m", "qcslab.cli", *args], tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]
    loaded = set(re.findall(r"^import '([^']+)' # ", result.stderr, re.MULTILINE))
    assert "qcslab.states" in loaded
    assert loaded & LAZY_MODULES == expected


def test_package_exports_resolve_on_first_use(tmp_path):
    """Importing qcslab loads neither module; ``from qcslab import *`` binds
    every name in ``__all__``, their six exports among them."""
    result = _run(
        "import sys, qcslab\n"
        f"lazy = {sorted(LAZY_MODULES)!r}\n"
        "assert not set(lazy) & set(sys.modules), 'imported with the package'\n"
        "from qcslab.constructors import fock\n"
        "assert qcslab.fock is fock\n"
        "names = {}\n"
        "exec('from qcslab import *', names)\n"
        "missing = [n for n in qcslab.__all__ if n not in names]\n"
        "assert not missing, missing\n"
        "assert set(lazy) <= set(sys.modules)\n"
        "from qcslab.phase_space import qcs_wigner_gradient\n"
        "from qcslab.sampling import estimate_qcs\n"
        "assert names['qcs_wigner_gradient'] is qcs_wigner_gradient\n"
        "assert qcslab.estimate_qcs is estimate_qcs\n"
        "try:\n"
        "    qcslab.no_such_export\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_export' in str(exc)\n"
        "else:\n"
        "    sys.exit('no AttributeError')\n",
        tmp_path)
    assert result.returncode == 0, result.stderr


def test_fock_is_the_constructor_after_an_in_process_compare(tmp_path):
    """Importing phase_space after the package leaves ``qcslab.fock`` bound to
    the state constructor, not to the ``qcslab.fock`` module."""
    for name, doc in SPECS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    result = _run(
        "import sys, qcslab\n"
        "from cli_runner import CliRunner\n"
        "from qcslab.cli import main\n"
        "r = CliRunner().invoke(main, ['compare', '--state', 'disp.json'])\n"
        "assert r.exit_code == 0, r.output\n"
        "assert 'qcslab.phase_space' in sys.modules\n"
        "from qcslab.constructors import fock\n"
        "assert qcslab.fock is fock, qcslab.fock\n"
        "assert qcslab.fock(1, 3).dim == 3\n",
        tmp_path)
    assert result.returncode == 0, result.stderr
