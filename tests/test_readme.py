"""The README's stated example outputs are what the code gives."""

import shlex
from pathlib import Path

from polycauchy import cauchy_number, cauchy_poly
from polycauchy.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()


def test_cli_examples_print_their_stated_output(capsys):
    examples = [line for line in README if line.startswith("polycauchy ") and "# -> " in line]
    assert len(examples) == 2
    for line in examples:
        command, _, stated = line.partition("# -> ")
        assert main(shlex.split(command)[1:]) == 0
        assert capsys.readouterr().out == stated.strip() + "\n"


def test_quick_tour_values_match_their_comments():
    calls = {
        'cauchy_poly("first", 4)': lambda: cauchy_poly("first", 4),
        'cauchy_number("second", 6)': lambda: cauchy_number("second", 6),
    }
    for call, value in calls.items():
        line = next(line for line in README if line.startswith(call))
        assert str(value()) == line.partition("#")[2].strip()
