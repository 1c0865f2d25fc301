"""Golden CLI outputs: every command of ``tests/golden/regenerate.py`` against
its record, run in process.  Equal bytes pass; otherwise each numeric field
must lie within its own tolerance, and the failure lists every field that
moved.  ``PYTHONPATH=src python tests/golden/regenerate.py`` rewrites the
records."""

import pytest

from golden.regenerate import COMMANDS, RECORDS, load, moved_fields, run


def test_every_record_has_a_command():
    assert sorted(path.stem for path in RECORDS.glob("*.json")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_output_matches_record(name):
    record = load(name)
    assert record["argv"] == COMMANDS[name]
    moved = moved_fields(record, run(COMMANDS[name]))
    assert not moved, f"{name} moved:\n" + "\n".join(moved)


def test_moved_fields_keeps_each_tolerance():
    def record(stdout):
        return {"argv": ["bound"], "exit_code": 0, "stdout": stdout, "stderr": ""}

    line = '{{"value": "{}", "c": "{}", "error_budget": "1e-06"}}\n'
    old = record(line.format("10", "1"))
    # the value within its budget and c within 12 digits pass
    assert moved_fields(old, record(line.format("10.0000005", "1.0000000000005"))) == []
    moved = moved_fields(old, record(line.format("10.000002", "1.000000000002")))
    assert [m.split(":")[0] for m in moved] == ["record 0 value", "record 0 c"]
    # the pretty and CSV forms of one record read the same fields
    pretty = moved_fields(record("value  10\nc      1\n"), record("value  10\nc      1.1\n"))
    csv = moved_fields(record("value,c\n10,1\n"), record("value,c\n10,1.1\n"))
    assert [m.split(":")[0] for m in pretty + csv] == ["record 0 c"] * 2
    assert moved_fields(old, {**record("value\n"), "exit_code": 1})[0].startswith("exit_code")
