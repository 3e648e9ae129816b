"""The paired perf gate's span scaling and comparison, on synthetic runs."""

import pytest

from benchmarks import perf_gate

END_TO_END = [
    {"name": "instr_per_s", "better": "higher", "bound": 0.2},
    {"name": "op_ms_p50", "better": "lower", "bound": 0.25},
]
GATED = {"fuzzer.generate": 0.09, "harness.run": 0.08}


def _run(**layers):
    values = {"fuzzer.generate": 10.0, "harness.run": 30.0,
              "harness.build_image": 0.5}
    values.update(layers)
    return {"correct": True, "failed": 0,
            "metrics": {"instr_per_s": 20000.0, "op_ms_p50": 40.0},
            "layers": values}


def _side(**layers):
    return [_run(**layers) for _ in range(3)]


def _compare(base, change):
    return perf_gate.compare("tf-fuzz", base, change, END_TO_END, GATED)


def _status(rows, metric):
    return next(row["status"] for row in rows if row["metric"] == metric)


def _span(index, name, start, end, parent):
    return {"id": index, "name": name, "start": start, "end": end,
            "parent": parent, "op": 0}


class TestLayerMs:
    def test_self_time_per_call_scaled_by_median_kernel(self):
        # The kernel took 5 ms, twice the reference 2.5 ms: the host ran at
        # half speed, so every self time is halved.
        spans = [
            _span(0, "bench.loop", 0.0, 1.0, None),
            _span(1, "campaign.session", 0.0, 0.100, 0),
            _span(2, "fuzzer.generate", 0.010, 0.030, 1),
            _span(3, "harness.run", 0.030, 0.090, 1),
            _span(4, "campaign.session", 0.200, 0.260, 0),
            _span(5, "harness.run", 0.200, 0.240, 4),
            _span(6, "bench.calibration", 0.300, 0.304, 0),
            _span(7, "bench.calibration", 0.400, 0.405, 0),
            _span(8, "bench.calibration", 0.500, 0.509, 0),
        ]
        layers = perf_gate.layer_ms(spans)
        assert set(layers) == {"campaign.session", "fuzzer.generate", "harness.run"}
        assert layers["fuzzer.generate"] == pytest.approx(20 / 2)
        assert layers["harness.run"] == pytest.approx((60 + 40) / 2 / 2)
        # (100 - 80) + (60 - 40) ms of self time over two calls.
        assert layers["campaign.session"] == pytest.approx(40 / 2 / 2)


class TestCompare:
    def test_identical_runs_pass(self):
        rows, failures = _compare(_side(), _side())
        assert failures == []
        assert {row["status"] for row in rows} == {"ok", "ungated"}
        assert _status(rows, "harness.build_image_ms") == "ungated"

    @pytest.mark.parametrize("layer", GATED)
    def test_slower_gated_layer_fails_and_is_named(self, layer):
        slower = _run()["layers"][layer] * 1.15
        rows, failures = _compare(_side(), _side(**{layer: slower}))
        assert failures == [f"tf-fuzz: {layer}_ms regressed"]
        assert _status(rows, f"{layer}_ms") == "regressed"

    def test_faster_layer_flags_no_other_layer(self):
        rows, failures = _compare(_side(), _side(**{"harness.run": 15.0}))
        assert failures == []
        assert _status(rows, "fuzzer.generate_ms") == "ok"

    def test_slower_ungated_layer_passes(self):
        _, failures = _compare(_side(), _side(**{"harness.build_image": 5.0}))
        assert failures == []

    def test_end_to_end_regression_fails(self):
        change = _side()
        for run in change:
            run["metrics"]["instr_per_s"] *= 0.7
        _, failures = _compare(_side(), change)
        assert failures == ["tf-fuzz: instr_per_s regressed"]

    @pytest.mark.parametrize("side", ("base", "change"))
    def test_incorrect_run_fails(self, side):
        runs = {"base": _side(), "change": _side()}
        runs[side][1]["correct"] = False
        _, failures = _compare(runs["base"], runs["change"])
        assert failures == [f"tf-fuzz: a {side} run is not correct"]

    def test_more_failed_ops_than_base_fails(self):
        base, change = _side(), _side()
        for run in base + change:
            run["failed"] = 3
        change[0]["failed"] = 4
        _, failures = _compare(base, change)
        assert failures == ["tf-fuzz: the change failed 10 ops, the base 9"]
        _, failures = _compare(change, base)
        assert failures == []

    def test_missing_end_to_end_metric_fails(self):
        change = _side()
        del change[2]["metrics"]["op_ms_p50"]
        _, failures = _compare(_side(), change)
        assert failures == ["tf-fuzz: op_ms_p50 missing"]

    def test_missing_gated_layer_fails(self):
        base, change = _side(), _side()
        for run in change:
            del run["layers"]["fuzzer.generate"]
        _, failures = _compare(base, change)
        assert failures == ["tf-fuzz: fuzzer.generate_ms missing"]
