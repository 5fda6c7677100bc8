"""`pins.py` passes with numpy blocked, record by record, and its checks fail
and name a bad record."""

import json
import subprocess
import sys

import pytest

import pins

_NAMES = [
    *(pins.golden_name(entry["argv"]) for entry in json.loads(pins._GOLDEN.read_text(encoding="utf-8"))),
    *(pin.name for pin in pins.PINS),
]


@pytest.fixture(scope="module")
def run():
    # one run of the script for every record; it blocks numpy itself, as CI's bare interpreter lacks it
    result = subprocess.run(
        [sys.executable, pins.__file__, "--json"], capture_output=True, text=True, timeout=300,
    )
    try:
        results = json.loads(result.stdout)
    except json.JSONDecodeError:  # a record overran its bound and stopped the script
        results = None
    return result, results


def test_every_pinned_output_matches_without_numpy(run):
    result, results = run
    assert result.returncode == 0, result.stdout + result.stderr
    assert [name for name, _ in results] == _NAMES


@pytest.mark.parametrize("index", range(len(_NAMES)), ids=_NAMES)
def test_pinned_output_matches(run, index):
    result, results = run
    assert results is not None, result.stdout + result.stderr
    assert tuple(results[index]) == (_NAMES[index], None)


def test_each_bad_pin_fails_and_is_named():
    good = pins.Pin("good", ["disc", "--form", "1,0,-1"], "4\n")
    bad = [
        pins.Pin("wrong stdout", ["disc", "--form", "1,0,-1"], "5\n"),
        pins.Pin("wrong exit code", ["disc", "--form", "1,0,-1"], "4\n", code=2),
        pins.Pin("traceback", "1 / 0", "", code=1),
        pins.Pin("over its bound", "import time; time.sleep(30)", "", bound=0.5),
    ]
    failures = pins.check_pins([good, *bad])
    assert [line.split(":")[0] for line in failures] == [pin.name for pin in bad]
    assert "stdout '4\\n', expected '5\\n'" in failures[0]
    assert "exit code 0, expected 2" in failures[1]
    assert "traceback ending 'ZeroDivisionError: division by zero'" in failures[2]
    assert failures[3] == "over its bound: still running after 0.5 s"


def test_each_bad_golden_record_fails_and_is_named():
    good = {"argv": ["disc", "--form", "1,0,-1"], "code": 0, "stdout": "4\n"}
    failures = pins.check_golden([
        good,
        {**good, "stdout": "5\n"},
        {"argv": ["--json", "disc", "--form", "1,0,-1"], "code": 2, "stdout": ""},
    ])
    assert failures == [
        "disc --form 1,0,-1: stdout '4\\n', expected '5\\n'",
        "--json disc --form 1,0,-1: exit code 0, expected 2; stderr ''",
    ]
