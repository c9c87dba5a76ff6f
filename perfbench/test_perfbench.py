"""The benchmark's own tests: reconciliation arithmetic and the correctness gate.

Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from drive import QueryRecord, QueryStats  # noqa: E402
from inputs import WORKLOADS  # noqa: E402
from metrics import (  # noqa: E402
    COMPONENTS,
    GateInput,
    ServerCounters,
    fig2_shares,
    gate,
    paper_fig2_shares,
    percentile,
    reconcile,
)
import report  # noqa: E402


def test_components_and_other_sum_to_wall_time():
    measured = {
        "connect_s": 0.0004,
        "encrypt_s": 2.8,
        "encode_s": 0.002,
        "send_s": 0.05,
        "result_wait_s": 0.0003,
        "decrypt_s": 0.001,
    }
    parts = reconcile(measured, wall_s=2.9)
    assert set(parts) == set(COMPONENTS) | {"other_s"}
    assert parts["other_s"] == pytest.approx(2.9 - sum(measured.values()))
    assert sum(parts.values()) == pytest.approx(2.9)
    assert parts["resume_s"] == 0.0 and parts["backoff_s"] == 0.0


def test_reconcile_rejects_overlapping_components():
    with pytest.raises(ValueError, match="more than"):
        reconcile({"encrypt_s": 2.0, "send_s": 1.5}, wall_s=3.0)
    with pytest.raises(ValueError, match="unknown"):
        reconcile({"fold_s": 0.1}, wall_s=1.0)


def test_fig2_shares_sum_to_one_and_subtract_fold_from_blocking():
    shares = fig2_shares(
        {"encrypt_s": 0.6, "send_s": 0.2, "result_wait_s": 0.15, "decrypt_s": 0.05},
        fold_s=0.15,
    )
    assert sum(shares.values()) == pytest.approx(1.0)
    # blocked 0.35 s minus 0.15 s of fold = 0.2 s of communication
    assert shares == pytest.approx(
        {"encrypt": 0.6, "fold": 0.15, "communication": 0.2, "decrypt": 0.05}
    )
    assert sum(paper_fig2_shares().values()) == pytest.approx(1.0)
    assert paper_fig2_shares()["encrypt"] > 0.85


def test_percentile_interpolates():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == pytest.approx(2.5)
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 95) == pytest.approx(4.8)
    assert percentile([7.0], 95) == 7.0


def _healthy(**overrides) -> GateInput:
    values = dict(
        sums=[(111, 111), (5, 5)],
        encryptions=[256, 256],
        n=256,
        cuts=1,
        repeated_ciphertexts=0,
        server=ServerCounters(admitted=3, served=2, dropped=1, shed=0, rejected=0),
    )
    values.update(overrides)
    return GateInput(**values)


def test_gate_passes_a_correct_run():
    assert gate(_healthy()) == []


def test_gate_fires_on_a_wrong_expected_sum():
    failures = gate(_healthy(sums=[(111, 111), (5, 6)]))
    assert len(failures) == 1 and "5 != 6" in failures[0]


@pytest.mark.parametrize(
    "overrides, needle",
    [
        (dict(server=ServerCounters(4, 2, 1, 0, 0)), "!= admitted"),
        (dict(cuts=2), "cut deliberately"),
        (dict(server=ServerCounters(3, 2, 1, 1, 0)), "shed"),
        (dict(repeated_ciphertexts=1), "repeated"),
        (dict(encryptions=[256, 512]), "exactly n"),
        (dict(server=None), "no server counters"),
        (dict(server=ServerCounters(2, 1, 1, 0, 0)), "clients got 2 sums"),
    ],
)
def test_gate_fires_on_each_invariant(overrides, needle):
    failures = gate(_healthy(**overrides))
    assert failures and any(needle in failure for failure in failures)


def _facts(expected: int) -> report.RunFacts:
    def record(index: int, finished: float) -> QueryRecord:
        stats = QueryStats(bytes_up=33000, bytes_down=116)
        for name, seconds in (("chunk_build_s", 0.004), ("encrypt_s", 0.003),
                              ("send_s", 0.002), ("result_wait_s", 0.02),
                              ("decrypt_s", 0.001)):
            stats.add(name, seconds)
        return QueryRecord(
            index=index, ok=True, started=finished - 0.03, finished=finished,
            result=1234, expected=expected, encryptions=256,
            bytes_total=33116, chunk_frames_sent=4, stats=stats,
        )

    dump = {"metrics": [
        {"name": "repro_server_sessions_%s_total" % outcome, "labels": {},
         "type": "counter", "value": value}
        for outcome, value in (("admitted", 5), ("served", 5), ("dropped", 0),
                               ("shed", 0), ("rejected", 0))
    ]}
    return report.RunFacts(
        spec=WORKLOADS["fleet"], total_chunks=4,
        setup_times=[0.2, 0.19, 0.21], warmup=[record(0, 1.0)],
        windows={
            "untraced": report.Window(
                [record(1, 2.0), record(2, 2.1)], 1.0, 1.1, 0.01
            ),
            "traced": report.Window(
                [record(3, 2.2), record(4, 2.3)], 2.1, 0.2, 0.01
            ),
        },
        cuts=0, repeated_ciphertexts=0, server_dump=dump,
        server_status={"peak_rss_mb": 30.0, "cpu_s": 1.0}, server_cpu_s=0.1,
        wal_bytes=0,
    )


def test_report_is_correct_when_every_sum_matches():
    correct, line = report.build(_facts(1234), False, io.StringIO())
    assert correct and line["correct"] and line["failed"] == 0
    assert line["metrics"]["latency_p50_s"] == {"value": pytest.approx(0.03), "unit": "s"}


def test_report_fails_the_run_on_a_wrong_expected_sum():
    out = io.StringIO()
    correct, line = report.build(_facts(1235), False, out)
    assert not correct and line["correct"] is False
    assert line["failed"] == line["attempted"] == 4
    assert line["metrics"] == {}
    assert "CORRECTNESS GATE FAILED" in out.getvalue()


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    facts = _facts(1234)
    for section, metrics in (("end_to_end", report.end_to_end(facts)),
                             ("per_layer", report.per_layer(facts))):
        assert {name: unit for name, (_, unit) in metrics.items()} == {
            entry["name"]: entry["unit"] for entry in declared[section]
        }
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (spec.name, spec.why) for spec in WORKLOADS.values()
    ]


def test_traced_components_reconcile_to_wall_time():
    layer = report.per_layer(_facts(1234))
    parts = sum(layer[name][0] for name in (
        "net.connect_s", "client.encrypt_s", "client.encode_s", "net.send_s",
        "net.resume_s", "net.result_wait_s", "net.backoff_s", "client.decrypt_s",
        "trace.other_s"))
    assert parts == pytest.approx(layer["trace.wall_s"][0]) == pytest.approx(0.03)
    assert layer["trace.other_s"][0] == pytest.approx(0.03 - 0.004 - 0.002 - 0.02 - 0.001)
