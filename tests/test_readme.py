"""The README's state documents, kind list and CLI lines work as written."""

import re
import shlex
from pathlib import Path

import pytest

from cli_runner import CliRunner
from qcslab import StateSpec
from qcslab.cli import ROUTES, main
from qcslab.states import KINDS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# `name.json`: followed by its JSON block
NAMED_SPECS = dict(re.findall(r"`(\w+\.json)`:\s*```json\n(.*?)```", README, re.S))


def _cli_lines():
    blocks = re.findall(r"```sh\n(.*?)```", README, re.S)
    lines = [line.split("#")[0].strip() for block in blocks for line in block.splitlines()]
    return [line.removeprefix("qcslab ") for line in lines if line.startswith("qcslab ")]


def test_every_json_block_is_a_valid_spec():
    blocks = re.findall(r"```json\n(.*?)```", README, re.S)
    assert len(blocks) == 3
    assert sorted(NAMED_SPECS.values()) == sorted(blocks)
    for block in blocks:
        StateSpec.from_json(block)


def test_kinds_line_names_the_table_kinds():
    sentence = README.split("\nKinds: ")[1].split(".")[0]
    named = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", sentence))
    assert sorted(named) == sorted(KINDS)


def test_routes_line_names_the_table_routes():
    sentence = README.split("\nRoutes: ")[1].split(".")[0]
    assert sorted(re.findall(r"`([\w-]+)`", sentence)) == sorted(ROUTES)


def test_cli_lines_cover_every_command():
    assert {line.split()[0] for line in _cli_lines()} == {
        "qcs", "compare", "purity", "pn-dist", "overlap", "sample", "figure2"}


@pytest.mark.parametrize("line", _cli_lines())
def test_cli_line_exits_0(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in NAMED_SPECS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, shlex.split(line))
    assert result.exit_code == 0, result.output
