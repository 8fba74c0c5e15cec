"""Arbitrary JSON at the two document boundaries: a run config and a bench spec.

Either document is accepted or rejected with ``ValidationError``; no other
exception may escape, so the command line prints ``error: ...`` and exits 1.
The strategies draw the real key names, and values of each field's type, often
enough that values of every JSON type reach every field and some documents
are accepted.
"""

from __future__ import annotations

from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from hireg import RunConfig, ValidationError
from hireg.cli import _parse_bench_spec
from hireg.config import _SECTION_TYPES

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8,
)


def _keyed(names, values):
    """Objects over ``names`` (plus the odd unknown key) holding ``values``."""
    keys = st.sampled_from(sorted(names)) | st.text(max_size=4)
    return st.dictionaries(keys, values, max_size=len(names))


def _document(cls):
    """Objects over the fields of ``cls``, each value mostly of its default's
    type and near its domain, else any JSON."""
    typed = {int: st.integers(-2, 3000), float: st.floats(-1.0, 2.0),
             str: st.sampled_from(["min", "mean", "max"])}
    default = cls()
    return st.fixed_dictionaries({}, optional={
        f.name: (_document(_SECTION_TYPES[f.name]) if cls is RunConfig
                 and f.name in _SECTION_TYPES else typed[type(getattr(default, f.name))]) | JSON
        for f in fields(cls)})


CONFIGS = _document(RunConfig) | JSON

SPECS = _keyed(
    ["pairs", "samples"],
    st.lists(_keyed(["id", "scene", "src", "tgt", "gt"], JSON), max_size=3)
    | st.lists(st.integers(-2, 500), max_size=3) | JSON,
) | JSON


def _types(document: dict) -> dict:
    return {key: _types(value) if isinstance(value, dict) else type(value)
            for key, value in document.items()}


@settings(deadline=None, max_examples=500)
@given(CONFIGS)
def test_config_accepted_or_validation_error(document):
    try:
        config = RunConfig.from_dict(document)
    except ValidationError:
        return
    assert RunConfig.from_dict(config.to_dict()) == config
    # every value has the type of its default, which is what register reads
    assert _types(config.to_dict()) == _types(RunConfig().to_dict())


@settings(deadline=None, max_examples=500)
@given(SPECS)
def test_bench_spec_accepted_or_validation_error(spec):
    try:
        entries, samples = _parse_bench_spec(spec, "spec.json")
    except ValidationError:
        return
    assert entries and all(isinstance(entry, dict) for entry in entries)
    assert samples is None or all(type(c) is int and c >= 1 for c in samples)
