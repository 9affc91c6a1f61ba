"""Tracking results keep the bytes recorded in ``tests/identity_digests.json``."""

import json

import identity_corpus


def test_results_match_the_recorded_digests(tmp_path):
    recorded = json.loads(identity_corpus.DIGESTS.read_text())
    found = identity_corpus.digests(tmp_path)
    differ = identity_corpus.differences(recorded["digests"], found)
    assert not differ, (f"result bytes differ from the digests recorded on "
                        f"{recorded['environment']} (this is {identity_corpus.environment()}): "
                        f"{', '.join(differ)}")
