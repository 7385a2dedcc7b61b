"""The perf benchmarks' one recording function: record mode and smoke gate."""

from __future__ import annotations

import json

import pytest

from benchmarks.conftest import record_section

BASELINE = {
    "decode": {"pages_per_s": 100.0, "n_pages": 8},
    "family": {"fsk": {"speedup": 6.0}},
}


@pytest.fixture
def paths(tmp_path):
    baseline = tmp_path / "BENCH_pipeline.json"
    baseline.write_text(json.dumps(BASELINE, indent=2, sort_keys=True) + "\n")
    return baseline, tmp_path / "output" / "BENCH_pipeline.json"


def _smoke(paths, name, section, bounds):
    baseline, measured = paths
    record_section(
        name, section, bounds, smoke=True,
        baseline_json=baseline, smoke_json=measured,
    )


def test_ratio_exactly_at_the_bound_passes(paths):
    _smoke(paths, "decode", {"pages_per_s": 0.7 * 100.0}, {"pages_per_s": 0.7})
    _smoke(paths, "family", {"fsk": {"speedup": 0.7 * 6.0}}, {"fsk.speedup": 0.7})


def test_ratio_just_below_the_bound_fails_with_section_value_and_baseline(paths):
    with pytest.raises(pytest.fail.Exception) as err:
        _smoke(paths, "decode", {"pages_per_s": 69.99}, {"pages_per_s": 0.7})
    message = str(err.value)
    assert "decode.pages_per_s" in message
    assert "69.99" in message
    assert "baseline 100" in message


def test_missing_baseline_section_fails_and_names_it(paths):
    with pytest.raises(pytest.fail.Exception, match="'network'"):
        _smoke(paths, "network", {"station_hours_per_s": 200.0},
               {"station_hours_per_s": 0.7})


def test_smoke_leaves_the_baseline_byte_identical(paths):
    baseline, measured = paths
    before = baseline.read_bytes()
    _smoke(paths, "decode", {"pages_per_s": 250.0, "n_pages": 8},
           {"pages_per_s": 0.7})
    with pytest.raises(pytest.fail.Exception):
        _smoke(paths, "decode", {"pages_per_s": 1.0}, {"pages_per_s": 0.7})
    assert baseline.read_bytes() == before
    # The measured section lands beside the run's other artifacts.
    assert json.loads(measured.read_text())["decode"]["pages_per_s"] == 1.0


def test_record_mode_merges_one_section_and_keeps_the_others(paths):
    baseline, measured = paths
    record_section(
        "decode", {"pages_per_s": 250.0}, {"pages_per_s": 0.7}, smoke=False,
        baseline_json=baseline, smoke_json=measured,
    )
    data = json.loads(baseline.read_text())
    assert data == {**BASELINE, "decode": {"pages_per_s": 250.0}}
    assert not measured.exists()
