"""File formats: ASCII PLY, plain XYZ, transform JSON, descriptor dumps.

Every JSON input (run config, transform, bench spec, descriptor sidecar) is
read by ``load_json``, as UTF-8.

Point writers emit 9 significant digits. The descriptor dump is binary
little-endian: magic ``HDRG``, one level byte (0 = low, 1 = high), u32 count,
u32 dimension, then row-major float32 values, with a JSON sidecar at
``<path>.json`` carrying the parameters used to compute them.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .cloud import PointCloud, RigidTransform
from .descriptors import DescriptorParams, DescriptorSet, Level
from .errors import ValidationError

_DESC_MAGIC = b"HDRG"
_LEVEL_BYTES = {Level.LOW: 0, Level.HIGH: 1}


def save_xyz(path, cloud: PointCloud) -> None:
    lines = [" ".join(f"{v:.9g}" for v in row) for row in cloud.points]
    Path(path).write_text("\n".join(lines) + "\n")


def load_xyz(path) -> PointCloud:
    rows = []
    # Undecodable bytes become U+FFFD, so a binary file fails the checks below
    # instead of escaping as a UnicodeDecodeError.
    text = Path(path).read_text(errors="replace")
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        fields = body.split()
        if len(fields) != 3:
            raise ValidationError(f"{path}:{lineno}: expected 3 coordinates, got {len(fields)}")
        try:
            rows.append([float(v) for v in fields])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise ValidationError(f"{path}: no points found")
    return PointCloud(np.asarray(rows))


def save_ply(path, cloud: PointCloud) -> None:
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(cloud)}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]
    body = [" ".join(f"{v:.9g}" for v in row) for row in cloud.points]
    Path(path).write_text("\n".join(header + body) + "\n")


def load_ply(path) -> PointCloud:
    lines = Path(path).read_text(errors="replace").splitlines()  # as in load_xyz
    if not lines or lines[0].strip() != "ply":
        raise ValidationError(f"{path}: not a PLY file")
    count = None
    properties: list[str] = []
    in_vertex = False
    body_at = None
    fmt_ok = False
    for i, line in enumerate(lines[1:], start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            if tokens[0] == "format":
                fmt_ok = tokens[1] == "ascii"
            elif tokens[0] == "element":
                in_vertex = tokens[1] == "vertex"
                if in_vertex:
                    count = int(tokens[2])
            elif tokens[0] == "property" and in_vertex:
                properties.append(tokens[-1])
            elif tokens[0] == "end_header":
                body_at = i + 1
                break
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"{path}:{i + 1}: bad header line {line!r}") from exc
    if not fmt_ok:
        raise ValidationError(f"{path}: only ascii PLY is supported")
    if count is None or body_at is None:
        raise ValidationError(f"{path}: missing vertex element or end_header")
    try:
        cols = [properties.index(axis) for axis in ("x", "y", "z")]
    except ValueError as exc:
        raise ValidationError(f"{path}: vertex element lacks x/y/z properties") from exc
    rows = []
    for lineno, line in enumerate(lines[body_at:body_at + count], start=body_at + 1):
        fields = line.split()
        if len(fields) < len(properties):
            raise ValidationError(f"{path}: truncated vertex row")
        try:
            rows.append([float(fields[c]) for c in cols])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    if len(rows) != count:
        raise ValidationError(f"{path}: expected {count} vertices, found {len(rows)}")
    if not rows:
        raise ValidationError(f"{path}: no points found")
    return PointCloud(np.asarray(rows))


def load_cloud(path) -> PointCloud:
    suffix = Path(path).suffix.lower()
    if suffix == ".ply":
        return load_ply(path)
    if suffix == ".xyz":
        return load_xyz(path)
    raise ValidationError(f"{path}: unsupported cloud format (use .ply or .xyz)")


def save_cloud(path, cloud: PointCloud) -> None:
    suffix = Path(path).suffix.lower()
    if suffix == ".ply":
        save_ply(path, cloud)
    elif suffix == ".xyz":
        save_xyz(path, cloud)
    else:
        raise ValidationError(f"{path}: unsupported cloud format (use .ply or .xyz)")


def load_json(path):
    """Parse a JSON file; one that is not UTF-8 JSON is a ValidationError
    naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc


def transform_to_dict(transform: RigidTransform) -> dict:
    return {
        "rotation": [float(v) for v in transform.rotation.reshape(-1)],
        "translation": [float(v) for v in transform.translation],
    }


def transform_from_dict(data: dict) -> RigidTransform:
    try:
        rotation = np.asarray(data["rotation"], dtype=np.float64).reshape(3, 3)
        translation = np.asarray(data["translation"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad transform record: {exc}") from exc
    return RigidTransform(rotation, translation)


def save_transform(path, transform: RigidTransform) -> None:
    Path(path).write_text(json.dumps(transform_to_dict(transform), indent=2) + "\n")


def load_transform(path) -> RigidTransform:
    return transform_from_dict(load_json(path))


def save_descriptors(path, descriptors: DescriptorSet,
                     params: DescriptorParams | None = None) -> None:
    vec = descriptors.vectors.astype("<f4")
    header = _DESC_MAGIC + struct.pack(
        "<BII", _LEVEL_BYTES[descriptors.level], len(descriptors), descriptors.dimension
    )
    Path(path).write_bytes(header + vec.tobytes())
    sidecar = {"level": descriptors.level.value,
               "count": len(descriptors),
               "dimension": descriptors.dimension,
               "params": asdict(params) if params is not None else None}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_descriptors(path) -> tuple[DescriptorSet, dict | None]:
    blob = Path(path).read_bytes()
    head = len(_DESC_MAGIC) + struct.calcsize("<BII")
    if len(blob) < head or blob[:4] != _DESC_MAGIC:
        raise ValidationError(f"{path}: not a descriptor dump")
    level_byte, count, dim = struct.unpack("<BII", blob[4:head])
    level = {v: k for k, v in _LEVEL_BYTES.items()}.get(level_byte)
    if level is None:
        raise ValidationError(f"{path}: unknown level byte {level_byte}")
    expected = head + 4 * count * dim
    if len(blob) != expected:
        raise ValidationError(f"{path}: expected {expected} bytes, found {len(blob)}")
    vec = np.frombuffer(blob[head:], dtype="<f4").reshape(count, dim).astype(np.float64)
    sidecar_path = Path(str(path) + ".json")
    sidecar = load_json(sidecar_path) if sidecar_path.exists() else None
    return DescriptorSet(level, vec), sidecar
