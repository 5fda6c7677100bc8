"""The suite's tools against what they read: `util`'s copy of the ring
workload, on which `certificates.py` runs, and the traffic map."""

import json
import re
from collections import Counter

import pytest

import traffic
import util


@pytest.fixture(scope="module")
def workloads():
    return traffic.load_workloads()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_util_draws_the_ring_workloads_pool_and_requests(workloads, seed):
    ring = workloads.Ring(seed, workloads.REFERENCE_SECONDS, traffic._REPO)
    ring.setup()
    copy = util.ring_pool(seed)
    assert {n: [F.pair.text() for F in fields] for n, fields in ring.pool.items()} == {
        n: [F.pair.text() for F in fields] for n, fields in copy.items()
    }
    planned = Counter((n, tuple(alpha)) for n, _slot, alpha, _beta in ring.plan)
    assert planned == Counter((F.n, alpha.coords) for F, alpha in util.ring_certificates(seed))


def test_traffic_map_runs_on_two_golden_argvs():
    entries = json.loads((traffic._TESTS / "cli_golden.json").read_text(encoding="utf-8"))[:2]
    assert [e["argv"][-3] for e in entries] == ["disc", "disc"]
    lines = traffic.report(traffic.trace(traffic.golden_sources(entries)))
    assert all(re.fullmatch(r"\w+\.py:\d+ [\w.]+: (never run|\d+(-\d+)?(, \d+(-\d+)?)*)", line) for line in lines)
    reports = dict(line.split(" ", 1)[1].split(": ") for line in lines)
    assert reports["_cmd_search"] == "never run"
    assert reports["run_command"] != "never run"
    assert reports["coeffs_discriminant"] != "never run"
    assert traffic._ranges([1, 2, 3, 5, 7, 8]) == "1-3, 5, 7-8"
