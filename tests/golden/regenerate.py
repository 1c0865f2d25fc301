"""Golden CLI outputs: the command list, an in-process runner, the field
comparison, and the script that rewrites the records.

Each record ``records/<name>.json`` holds a command's argv, exit code,
stdout and stderr.  ``tests/test_golden.py`` runs every command of
:data:`COMMANDS` through ``cli.main`` and compares.  Equal bytes pass;
otherwise each numeric field of stdout must lie within a tolerance of its
own: the record's ``error_budget`` for the ``value`` of a record that
prints one, else 12 significant digits (1e-12 relative).

Rewrite every record, or the named ones, and list the fields that moved:

    PYTHONPATH=src python tests/golden/regenerate.py [name ...]

Commands run with this directory as the working directory, so ``--x``
reads ``x3.json`` here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from sharp_rosenthal import cli

HERE = Path(__file__).resolve().parent
RECORDS = HERE / "records"

_P53 = ["--p", "5.3", "--q", "5", "--A", "1.4", "--B", "1"]
_A1B1 = ["--A1", "0.5", "--B1", "0.7"]
_X3 = ["--x", "x3.json"]
_JSON = ["--output", "json"]

#: name -> argv, in the order the records are run
COMMANDS: dict[str, list[str]] = {
    "verify-variation": ["verify", "variation", "--cases", "10", "--seed", "5150"],
    "verify-fuzz-p5": ["verify", "fuzz", "--p", "5", "--cases", "10", "--seed", "0"],
    "verify-fuzz-p2.5": ["verify", "fuzz", "--p", "2.5", "--cases", "10", "--seed", "0"],
    "verify-domination": ["verify", "domination", "--q", "5", "--cases", "10", "--seed", "0"],
    "verify-domination-unread-flag": ["verify", "domination", "--cases", "2", "--p", "9"],
    "verify-tightness-p4": ["verify", "tightness", "--p", "4"],
    "verify-tightness-p6": ["verify", "tightness", "--p", "6"],
    "verify-qscan": ["verify", "qscan", "--p", "6", "--q", "5.5"],
    "scan-cell-counts": ["scan", "--p", "7.5", "--q", "6.5", "--A", "1", "--B", "1", *_JSON],
    "scan-grid-8": ["scan", "--p", "5", "--A", "1", "--B", "1", "--grid", "8", *_JSON],
    "scan-grid-21": ["scan", "--p", "5", "--A", "1", "--B", "1", "--grid", "21"],
    "scan-x3": ["scan", "--p", "5.5", "--q", "5.2", "--A", "1.3", "--B", "1", *_X3, *_JSON],
    "limit": ["limit", "--p", "5.5", "--A", "1", "--B", "1", "--b", "0.5", "--a", "0.3",
              "--c2", "2,4,8,16"],
    "constants": ["constants", "--p-values", "3,4,5.5", "--gamma-values", "0.5,1,2"],
    "accompany-n16": ["accompany", "--p", "5.601809838920818", "--A", "0.1265176410210817",
                      "--B", "1.1221612517597384", "--n", "16"],
    "accompany-n2097152": ["accompany", "--p", "4", "--A", "1", "--B", "1", "--n", "2097152",
                           *_JSON],
    "bound-p5-pretty": ["bound", "--p", "5", "--A", "1", "--B", "1"],
    "bound-p5.3-exact": ["bound", *_P53, *_JSON],
    "bound-p5.3-exact-x3": ["bound", *_P53, *_X3, *_JSON],
    "bound-p5.3-symmetric": ["bound", *_P53, "--mode", "symmetric", *_JSON],
    "bound-p5.3-symmetric-x3": ["bound", *_P53, "--mode", "symmetric", *_X3, *_JSON],
    "bound-p5.3-combined": ["bound", *_P53, "--mode", "combined", *_A1B1, *_JSON],
    "bound-p5.3-combined-x3": ["bound", *_P53, "--mode", "combined", *_A1B1, *_X3, *_JSON],
    "bound-p2.5-exact": ["bound", "--p", "2.5", "--A", "1", "--B", "1", *_JSON],
    "bound-p2.5-exact-x3-csv": ["bound", "--p", "2.5", "--A", "1", "--B", "1", *_X3,
                                "--output", "csv"],
    "bound-p2.5-symmetric": ["bound", "--p", "2.5", "--A", "1", "--B", "1", "--mode",
                             "symmetric"],
    "bound-p2.5-combined-x3": ["bound", "--p", "2.5", "--A", "1", "--B", "1", "--mode",
                               "combined", *_A1B1, *_X3],
    "bound-combined-near-pair": ["bound", "--mode", "combined", "--p", "6", "--q", "5.5",
                                 "--A", "0.7", "--B", "0.3", "--A1", "2.0999999999999996",
                                 "--B1", "0.8999999999999999", *_JSON],
    "bound-even-p4": ["bound", "--mode", "even", "--p", "4", "--A", "1", "--B", "1", *_JSON],
    "bound-even-p4.5": ["bound", "--mode", "even", "--p", "4.5", "--A", "1", "--B", "1"],
    "bound-lambda-215443": ["bound", "--p", "5", "--A", "1e-8", "--B", "1", *_JSON],
    "bound-lambda-31623": ["bound", "--p", "6", "--q", "6", "--A", "1e-9", "--B", "1", *_JSON],
}


def run(argv: list[str]) -> dict:
    """The record of one command, run in process with this directory as cwd."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse refusals
                code = exc.code
    finally:
        os.chdir(cwd)
    return {"argv": list(argv), "exit_code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def load(name: str) -> dict:
    return json.loads((RECORDS / f"{name}.json").read_text(encoding="utf-8"))


def _fields(stdout: str) -> list[tuple[int, str, str]]:
    """(record, field, text) for every field of stdout.

    A JSONL line is one record; CSV is a header line and one record per
    row; the pretty format (``key  value`` lines) is one record.
    """
    lines = stdout.splitlines()
    try:
        rows = [json.loads(line) for line in lines]
    except json.JSONDecodeError:
        rows = None
    if rows is not None and all(isinstance(row, dict) for row in rows):
        return [(i, k, json.dumps(v) if not isinstance(v, str) else v)
                for i, row in enumerate(rows) for k, v in row.items()]
    if lines and "," in lines[0]:
        header = lines[0].split(",")
        return [(i, k, v) for i, line in enumerate(lines[1:])
                for k, v in zip(header, line.split(","), strict=True)]
    return [(0, *line.split(None, 1)) for line in lines]


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def moved_fields(old: dict, new: dict) -> list[str]:
    """Every difference of ``new`` from the record ``old`` beyond its
    tolerance, one line each; empty when the outputs agree."""
    moved = [f"{key}: {old[key]!r} -> {new[key]!r}"
             for key in ("argv", "exit_code", "stderr") if old[key] != new[key]]
    if old["stdout"] == new["stdout"]:
        return moved
    try:
        before, after = _fields(old["stdout"]), _fields(new["stdout"])
        same_shape = [f[:2] for f in before] == [f[:2] for f in after]
    except ValueError:  # a CSV row no longer matches its header
        same_shape = False
    if not same_shape:
        return moved + ["stdout changed shape:\n" + new["stdout"]]
    budgets = {rec: _number(text) for rec, key, text in before if key == "error_budget"}
    for (rec, key, was), (_, _, now) in zip(before, after):
        if was == now:
            continue
        a, b = _number(was), _number(now)
        if a is None or b is None:
            moved.append(f"record {rec} {key}: {was} -> {now}")
            continue
        tol = budgets[rec] if key == "value" and rec in budgets else 1e-12 * abs(a)
        if not abs(b - a) <= tol:  # a NaN moves
            moved.append(f"record {rec} {key}: {was} -> {now} "
                         f"(moved {b - a:.3g}, tolerance {tol:.3g})")
    return moved


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in COMMANDS]
    if unknown:
        print(f"unknown records: {unknown}", file=sys.stderr)
        return 2
    for name in names or COMMANDS:
        record = run(COMMANDS[name])
        path = RECORDS / f"{name}.json"
        if path.exists():
            old = load(name)
            changes = moved_fields(old, record)
            if old != record:
                print(f"{name}: rewritten" + "".join(f"\n  {c}" for c in changes))
        else:
            print(f"{name}: new")
        lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in record.items())
        path.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
