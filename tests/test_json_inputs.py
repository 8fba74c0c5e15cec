"""Arbitrary JSON at the document boundaries: a run config, a bench spec and
a bench spec's scene object.

Each is accepted or rejected with ``ValidationError``; a scene with an unknown
key raises ``TypeError``, which ``bench`` reports as a bad scene. No other
exception may escape, so the command line prints ``error: ...`` and exits 1.
The strategies draw the real key names, and values of each field's type, often
enough that values of every JSON type reach every field and some documents
are accepted.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import get_type_hints

from hypothesis import given, settings
from hypothesis import strategies as st

from hireg import RunConfig, SceneSpec, ValidationError
from hireg.cli import _parse_bench_spec

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
    typed = {int: st.integers(-2, 3000), float: st.floats(-1.0, 2.0)}
    default, types = cls(), get_type_hints(cls)
    return st.fixed_dictionaries({}, optional={
        f.name: (_document(types[f.name]) if is_dataclass(types[f.name])
                 else typed[type(getattr(default, f.name))]) | JSON
        for f in fields(cls)})


CONFIGS = _document(RunConfig) | JSON

SPECS = _keyed(
    ["pairs", "samples"],
    st.lists(_keyed(["id", "scene", "src", "tgt", "gt"], JSON), max_size=3)
    | st.lists(st.integers(-2, 500), max_size=3) | JSON,
) | JSON


_SCENE_FIELDS = {f.name for f in fields(SceneSpec)}
_VALID_SCENE = st.fixed_dictionaries({}, optional={
    "shape": st.sampled_from(["plane", "box", "room"]),
    "n_points": st.integers(1, 3000),
    "seed": st.integers(0, 2 ** 32),
    "overlap": st.floats(0.0, 1.0),
    "noise_sigma": st.floats(0.0, 0.1),
    "outlier_fraction": st.floats(0.0, 1.0),
    "overlap_radius": st.floats(0.0, 1.0, exclude_min=True),
    "transform": st.none(),
})
_NEAR_SCENE = {"n_points": st.integers(-2, 0), "seed": st.integers(-2, 0)}


@st.composite
def _scenes(draw):
    """Bench-spec scene objects: valid fields, then mostly one field (or an
    unknown key) set to a value just outside its domain, a bool or any JSON."""
    document = draw(_VALID_SCENE)
    if draw(st.integers(0, 3)):
        key = draw(st.sampled_from(sorted(_SCENE_FIELDS) + ["n_point"]))
        document[key] = draw(_NEAR_SCENE.get(key, st.floats(-1.0, 2.0)) | st.booleans()
                             | JSON)
    return document


SCENES = _scenes()


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


@settings(deadline=None, max_examples=500)
@given(SCENES)
def test_scene_spec_constructs_or_validation_error(document):
    try:
        spec = SceneSpec(**document)
    except ValidationError:
        return
    except TypeError:
        # only an unknown key, never a comparison on a value of the wrong type
        assert not document.keys() <= _SCENE_FIELDS
        return
    for name in ("overlap", "noise_sigma", "outlier_fraction", "overlap_radius"):
        value = getattr(spec, name)
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
    assert 0 <= spec.overlap <= 1 and 0 <= spec.outlier_fraction <= 1
    assert spec.noise_sigma >= 0 and spec.overlap_radius > 0
    assert type(spec.n_points) is int and spec.n_points >= 1
    assert type(spec.seed) is int and spec.seed >= 0
    assert spec.transform is None
