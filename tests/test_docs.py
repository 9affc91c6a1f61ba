"""The README's configuration table, its lists of spec attributes, trace columns and
manifest totals, and its intake limits match the code."""

import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from hamtrack import kalman
from hamtrack.cli import MANIFEST_TOTALS, TRACE_COLUMNS
from hamtrack.core import LEAST_NOISE, BBox, Detection, TrackerConfig, validate_config
from hamtrack.sadf import MAX_CONFIDENCE
from hamtrack.synthgen import SPEC_GROUPS
from hamtrack.tracker import Tracker

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_spec_group_attributes_match_the_group_dataclasses():
    listed = {kind: re.findall(r"`(\w+)`( \(optional\))?", attrs)
              for kind, attrs in re.findall(r"^  - `(\w+)\.<k>`: (.*)$", README, re.M)}
    declared = {kind: [(f.metadata.get("key", f.name),
                        "" if f.default is MISSING else " (optional)") for f in fields(cls)]
                for kind, (_, cls) in SPEC_GROUPS.items()}
    assert listed == declared


def test_trace_columns_match_the_trace_writer():
    listed = re.search(r"`--trace F` writes a CSV with one row per frame and these columns:"
                       r"\n(.*?)\. ", README, re.S)
    assert re.findall(r"`(\w+)`", listed[1]) == ["frame", *TRACE_COLUMNS]


def test_manifest_totals_match_the_manifest_writer():
    listed = re.search(r"The manifest's `totals` give (.*?)\.\n", README, re.S)[1]
    named = re.findall(r"`(\w+)`(?: \(as `(\w+)`\))?", " ".join(listed.split()))
    assert {total or column: column for column, total in named} == {
        "frames": "frames", "boxes": "boxes", **MANIFEST_TOTALS}


def test_configuration_table_lists_every_field_with_its_default():
    table = re.search(r"^\| key \| default \| meaning \|\n\|[-|]+\n((?:\|.*\n)+)", README, re.M)[1]
    listed = {}
    for keys, defaults in re.findall(r"^\| (.*?) \| (.*?) \|", table, re.M):
        listed |= zip(re.findall(r"`(\w+)`", keys), defaults.replace("`", "").split(", "),
                      strict=True)
    declared = {f.name: f.default for f in fields(TrackerConfig)}
    assert list(listed) == list(declared)
    for name, default in declared.items():
        if isinstance(default, (bool, str)):
            assert listed[name] == str(default).lower(), name
        else:
            assert float(listed[name]) == default, name
    least = re.search(r"^\| `measurement_noise` \|.*; 0 needs a `process_noise` of 0 or at least "
                      r"([0-9.e-]+) \(`core\.LEAST_NOISE`\) \|$", table, re.M)[1]
    assert least == f"{LEAST_NOISE:.1e}"
    assert validate_config(TrackerConfig(measurement_noise=0.0, process_noise=LEAST_NOISE)) == []
    assert validate_config(TrackerConfig(measurement_noise=0.0, process_noise=LEAST_NOISE / 2))


def test_intake_limits_match_the_tracker():
    listed = " ".join(re.search(r"^## Intake limits\n(.*?)^## ", README, re.S | re.M)[1].split())
    bound = re.search(r"±`sadf\.MAX_CONFIDENCE` \(([^)]+)\)", listed)[1]
    assert float(bound) == MAX_CONFIDENCE
    assert f"beyond ±{MAX_CONFIDENCE!r}: SADF's statistics overflow" in listed
    tallest = re.search(r"`Tracker\.tallest` \(about ([0-9.e]+) px at the default", listed)[1]
    assert tallest == f"{Tracker().tallest:.1e}".replace("e+", "e")
    largest = re.search(r"the limit is at most about ([0-9.e]+),", listed)[1]
    assert largest == f"{kalman.tallest(2, 0.0, 0.0):.1e}".replace("e+", "e")  # max_age 1
    tracker = Tracker(TrackerConfig(filter_mode="none"), use_appearance=False)
    big = 2.0 * tracker.tallest
    for name, size in (("w", (big, 60.0)), ("h", (30.0, big))):
        dets = [Detection(7, BBox(100.0 * k, 0.0, *(size if k == 2 else (30.0, 60.0))), 1.0)
                for k in range(3)]
        with pytest.raises(ValueError) as rejected:
            tracker.step(7, dets)
        text = str(rejected.value)
        for value, placeholder in (("frame 7:", "frame <n>:"), ("detection 2 ", "detection <k> "),
                                   (repr(big), f"<{name}>"), (repr(tracker.tallest), "<limit>"),
                                   ("= 11 frames", "= <m> frames")):
            assert text.count(value) == 1, (value, text)
            text = text.replace(value, placeholder)
        assert f"`{text}`" in listed
    assert "**Centre.**" not in listed and "centre beyond" not in listed


def test_least_height_matches_the_tracker():
    listed = " ".join(re.search(r"^## Intake limits\n(.*?)^## ", README, re.S | re.M)[1].split())
    tracker = Tracker(TrackerConfig(filter_mode="none", process_noise=0.0), use_appearance=False)
    least = re.search(r"`Tracker\.shortest` tall \(about ([0-9.e-]+) px", listed)[1]
    assert least == f"{tracker.shortest:.1e}" and Tracker().shortest == 0.0
    low = tracker.shortest / 2
    with pytest.raises(ValueError) as rejected:
        tracker.step(7, [Detection(7, BBox(0.0, 0.0, 30.0, low), 1.0)])
    text = str(rejected.value)
    for value, placeholder in (("frame 7:", "frame <n>:"), ("detection 0 ", "detection <k> "),
                               (repr(low), "<h>"), (repr(tracker.shortest), "<limit>")):
        assert text.count(value) == 1, (value, text)
        text = text.replace(value, placeholder)
    assert f"`{text}`" in listed
