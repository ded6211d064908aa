"""Content-addressed key scheme tests."""

import dataclasses
import hashlib
import json

from repro.runstore.keys import (
    CACHE_VERSION,
    DEFAULT_OPTIONS,
    canonical_json,
    job_key,
    scenario_to_canonical,
)

from .fakes import scenario


def test_key_is_64_hex_and_deterministic():
    a = job_key(scenario(1))
    b = job_key(scenario(1))
    assert a == b
    assert len(a) == 64
    assert all(c in "0123456789abcdef" for c in a)


def test_key_sensitive_to_every_scenario_field():
    base = scenario(1)
    variants = [
        dataclasses.replace(base, seed=2),
        dataclasses.replace(base, duration=3.0),
        dataclasses.replace(base, buffer_bytes=200_000),
        dataclasses.replace(base, name="other"),
    ]
    keys = {job_key(sc) for sc in [base] + variants}
    assert len(keys) == len(variants) + 1


def test_key_sensitive_to_options_and_version():
    sc = scenario(1)
    base = job_key(sc)
    assert job_key(sc, options={"record_drop_times": False}) != base
    assert job_key(sc, version=CACHE_VERSION + 1) != base
    # Explicitly passing the defaults is the same as passing nothing.
    assert job_key(sc, options=dict(DEFAULT_OPTIONS)) == base


def test_canonical_json_is_stable_under_dict_order():
    assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json({"a": [2, 3], "b": 1})


def test_key_matches_documented_construction():
    sc = scenario(3)
    doc = {
        "options": dict(DEFAULT_OPTIONS),
        "scenario": scenario_to_canonical(sc),
        "version": CACHE_VERSION,
    }
    expected = hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
    assert job_key(sc) == expected


def test_canonical_json_is_valid_compact_json():
    text = canonical_json(scenario_to_canonical(scenario(4)))
    assert json.loads(text)["name"] == "s4"
    assert ": " not in text and ", " not in text

