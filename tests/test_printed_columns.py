"""The checker of printed columns catches what it is there to catch: a column
with no oracle, a golden value changed in its 12th significant digit, and a
ray whose bend is 1e-3 off."""

import json
import re
from decimal import Decimal

import pytest

from gravshift.cli import main

from printed_columns import COLUMNS, LABEL, check_stdout, parse_stdout
from test_public_surface import ARGV, GOLDEN_STDOUT

#: a cell of a text row: words that single spaces join
CELL = re.compile(r"\S+(?: \S+)*")


def is_number(value):
    if isinstance(value, str):
        try:
            float(value)
        except ValueError:
            return False
        return True
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def numeric_columns(argv, stdout):
    """The columns of a stdout that print a number, summary values included."""
    columns, rows, summary = parse_stdout(argv, stdout)
    table = COLUMNS[argv[0]]
    return [*(c for c in columns if table[c] is not LABEL and is_number(rows[0][c])),
            *(c for c, value in summary.items() if is_number(value))]


def with_value(stdout, column, change):
    """``stdout`` with the first printed value of ``column`` replaced by
    change(its text)."""
    if stdout[0] in "[{":
        return re.sub(rf'(?<="{column}": )[^,\n]+', lambda m: change(m[0]), stdout, count=1)
    if column == "threshold":  # the experiment summary line
        return re.sub(r"(?<=at threshold )\S+", lambda m: change(m[0]), stdout, count=1)
    lines = stdout.split("\n")
    if "," in lines[0]:  # csv: the first row
        cells = lines[1].split(",")
        i = lines[0].split(",").index(column)
        cells[i] = change(cells[i])
        lines[1] = ",".join(cells)
        return "\n".join(lines)
    header = CELL.findall(lines[0])
    if column in header:  # a text table: the first row
        row, cell = 1, list(CELL.finditer(lines[1]))[header.index(column)]
    else:  # a text record: the line of the column
        row = next(i for i, line in enumerate(lines) if line.startswith(f"{column} "))
        cell = list(CELL.finditer(lines[row]))[-1]
    start, end = cell.span()
    lines[row] = lines[row][:start] + change(cell[0]) + lines[row][end:]
    return "\n".join(lines)


def with_extra_column(argv, stdout):
    """``stdout`` with one more column, named 'extra', in its first row."""
    if stdout[0] in "[{":
        printed = json.loads(stdout)
        (printed[0] if isinstance(printed, list) else printed)["extra"] = 0.0
        return json.dumps(printed, indent=2) + "\n"
    head, blank, tail = stdout.partition("\n\n")
    lines = head.splitlines()
    if "," in lines[0]:
        lines = [lines[0] + ",extra", *(line + ",0" for line in lines[1:])]
    elif argv[0] == "shift":
        lines.append("extra  0")
    else:
        lines = [lines[0] + "  extra", *(line + "  0" for line in lines[1:])]
    return "\n".join(lines) + head[len(head.rstrip("\n")):] + blank + tail


def twelfth_digit(text):
    """The number ``text`` with 5 added to its 12th significant digit."""
    value = Decimal(text)
    return str(value + 5 * Decimal(10) ** (value.adjusted() - 11))


DIGITS = [(key, column) for key, stdout in GOLDEN_STDOUT.items()
          for column in numeric_columns(key.split(), stdout)]


@pytest.mark.parametrize("key", list(GOLDEN_STDOUT))
def test_a_column_with_no_oracle_is_caught(key):
    argv = key.split()
    check_stdout(argv, 0, GOLDEN_STDOUT[key])
    with pytest.raises(AssertionError, match=r"no oracle for column\(s\) \['extra'\]"):
        check_stdout(argv, 0, with_extra_column(argv, GOLDEN_STDOUT[key]))


@pytest.mark.parametrize("key, column", DIGITS, ids=[f"{k} :: {c}" for k, c in DIGITS])
def test_a_changed_12th_digit_is_caught(key, column):
    changed = with_value(GOLDEN_STDOUT[key], column, twelfth_digit)
    assert changed != GOLDEN_STDOUT[key]
    with pytest.raises(AssertionError, match=rf" {column}: printed"):
        check_stdout(key.split(), 0, changed)


@pytest.mark.parametrize("argv", [a for a in ARGV if a[0] == "photon"], ids=" ".join)
def test_a_bend_off_by_1e3_is_caught(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    check_stdout(argv, 0, out)
    bent = with_value(out, "deflection_rad", lambda text: repr(float(text) * (1 + 1e-3)))
    with pytest.raises(AssertionError, match="photon deflection_rad: printed"):
        check_stdout(argv, 0, bent)
