"""The README's configuration table, its lists of spec attributes, trace columns and
manifest totals, and its intake limits match the code."""

import re
from dataclasses import MISSING, fields
from pathlib import Path

from hamtrack.cli import MANIFEST_TOTALS, TRACE_COLUMNS
from hamtrack.core import TrackerConfig
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


def test_intake_limits_match_the_tracker():
    listed = " ".join(re.search(r"^## Intake limits\n(.*?)^## ", README, re.S | re.M)[1].split())
    bound = re.search(r"±`sadf\.MAX_CONFIDENCE` \(([^)]+)\)", listed)[1]
    assert float(bound) == MAX_CONFIDENCE
    assert f"beyond ±{MAX_CONFIDENCE!r}: SADF's statistics overflow" in listed
    tallest = re.search(r"`Tracker\.tallest` \(about ([0-9.e]+) px at the default", listed)[1]
    assert tallest == f"{Tracker().tallest:.1e}".replace("e+", "e")
