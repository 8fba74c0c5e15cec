"""File format round trips: PLY, XYZ, transform JSON, descriptor dumps."""

import json
import struct

import numpy as np
import pytest

from hireg import DescriptorParams, DescriptorSet, Level, PointCloud, ValidationError
from hireg import io

from conftest import random_transform


@pytest.fixture
def cloud(rng):
    return PointCloud(rng.uniform(-5, 5, size=(37, 3)))


class TestXyz:
    def test_round_trip(self, tmp_path, cloud):
        path = tmp_path / "c.xyz"
        io.save_xyz(path, cloud)
        back = io.load_xyz(path)
        np.testing.assert_allclose(back.points, cloud.points, rtol=1e-8)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("# header\n1 2 3\n\n4 5 6  # inline\n")
        back = io.load_xyz(path)
        np.testing.assert_array_equal(back.points, [[1, 2, 3], [4, 5, 6]])

    def test_rejects_binary_file(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_bytes(b"\xff\xfe 1 2\n")
        with pytest.raises(ValidationError, match=r"c\.xyz:1:"):
            io.load_xyz(path)

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("1 2\n")
        with pytest.raises(ValidationError):
            io.load_xyz(path)

    def test_nine_significant_digits(self, tmp_path):
        value = 1.234567891234
        path = tmp_path / "c.xyz"
        io.save_xyz(path, PointCloud(np.array([[value, 0.0, 0.0]])))
        text = path.read_text().split()[0]
        assert text == "1.23456789"


class TestPly:
    def test_round_trip(self, tmp_path, cloud):
        path = tmp_path / "c.ply"
        io.save_ply(path, cloud)
        back = io.load_ply(path)
        np.testing.assert_allclose(back.points, cloud.points, rtol=1e-8)

    def test_header_structure(self, tmp_path, cloud):
        path = tmp_path / "c.ply"
        io.save_ply(path, cloud)
        lines = path.read_text().splitlines()
        assert lines[0] == "ply"
        assert lines[1] == "format ascii 1.0"
        assert f"element vertex {len(cloud)}" in lines
        assert "end_header" in lines

    def test_extra_properties_ignored(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("\n".join([
            "ply", "format ascii 1.0", "element vertex 1",
            "property float intensity", "property float x", "property float y",
            "property float z", "end_header", "9.5 1 2 3",
        ]) + "\n")
        np.testing.assert_array_equal(io.load_ply(path).points, [[1, 2, 3]])

    def test_rejects_binary_format(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(ValidationError):
            io.load_ply(path)

    def test_rejects_missing_axis(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("\n".join([
            "ply", "format ascii 1.0", "element vertex 1",
            "property float x", "property float y", "end_header", "1 2",
        ]) + "\n")
        with pytest.raises(ValidationError):
            io.load_ply(path)

    def test_rejects_binary_body(self, tmp_path):
        # A binary body used to escape as a UnicodeDecodeError.
        path = tmp_path / "c.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
                         b"property float x\nproperty float y\nproperty float z\n"
                         b"end_header\n\xff\xfe\x00\x80\x81\x82\x83\x84\x85\x86\x87\x88")
        with pytest.raises(ValidationError, match="only ascii PLY"):
            io.load_ply(path)

    # Each of these used to escape as a bare ValueError or IndexError.
    @pytest.mark.parametrize("lines, message", [
        (["format ascii 1.0", "element vertex abc"], r"c\.ply:3: bad header line"),
        (["format"], r"c\.ply:2: bad header line"),
        (["format ascii 1.0", "element vertex 2"], r"c\.ply:9: .*'zz'"),
    ], ids=["vertex-count-not-int", "bare-format", "coordinate-not-number"])
    def test_rejects_malformed_file(self, tmp_path, lines, message):
        path = tmp_path / "c.ply"
        path.write_text("\n".join(["ply", *lines, "property float x", "property float y",
                                   "property float z", "end_header", "1 2 3", "0 zz 0"]) + "\n")
        with pytest.raises(ValidationError, match=message):
            io.load_ply(path)

    def test_rejects_empty_vertex_element(self, tmp_path):
        """Zero vertices name the file, as an empty xyz file does."""
        path = tmp_path / "c.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 0\nproperty float x\n"
                        "property float y\nproperty float z\nend_header\n")
        with pytest.raises(ValidationError, match=r"c\.ply: no points found"):
            io.load_ply(path)
        empty = tmp_path / "c.xyz"
        empty.write_text("# no rows\n")
        with pytest.raises(ValidationError, match=r"c\.xyz: no points found"):
            io.load_xyz(empty)

    def test_dispatch_by_suffix(self, tmp_path, cloud):
        ply = tmp_path / "c.ply"
        xyz = tmp_path / "c.xyz"
        io.save_cloud(ply, cloud)
        io.save_cloud(xyz, cloud)
        assert len(io.load_cloud(ply)) == len(cloud)
        assert len(io.load_cloud(xyz)) == len(cloud)
        with pytest.raises(ValidationError):
            io.save_cloud(tmp_path / "c.obj", cloud)


class TestTransformJson:
    def test_round_trip(self, tmp_path, rng):
        t = random_transform(rng)
        path = tmp_path / "t.json"
        io.save_transform(path, t)
        back = io.load_transform(path)
        np.testing.assert_allclose(back.rotation, t.rotation, atol=1e-15)
        np.testing.assert_allclose(back.translation, t.translation, atol=1e-15)

    def test_schema(self, tmp_path, rng):
        t = random_transform(rng)
        path = tmp_path / "t.json"
        io.save_transform(path, t)
        data = json.loads(path.read_text())
        assert len(data["rotation"]) == 9
        assert len(data["translation"]) == 3
        # row-major layout
        assert data["rotation"][1] == pytest.approx(t.rotation[0, 1])

    def test_rejects_malformed(self):
        with pytest.raises(ValidationError):
            io.transform_from_dict({"rotation": [1, 2, 3]})


class TestDescriptorDump:
    def _descriptors(self, rng, level=Level.LOW, n=11, dim=6):
        vec = rng.normal(size=(n, dim))
        vec /= np.linalg.norm(vec, axis=1, keepdims=True)
        return DescriptorSet(level, vec)

    def test_round_trip(self, tmp_path, rng):
        descs = self._descriptors(rng)
        path = tmp_path / "d.hdrg"
        io.save_descriptors(path, descs, DescriptorParams())
        back, sidecar = io.load_descriptors(path)
        assert back.level == Level.LOW
        assert back.dimension == descs.dimension
        np.testing.assert_allclose(back.vectors, descs.vectors, atol=1e-6)
        assert sidecar["params"]["bins"] == 11

    def test_binary_header_layout(self, tmp_path, rng):
        descs = self._descriptors(rng, level=Level.HIGH, n=3, dim=4)
        path = tmp_path / "d.hdrg"
        io.save_descriptors(path, descs)
        blob = path.read_bytes()
        assert blob[:4] == b"HDRG"
        level_byte, count, dim = struct.unpack("<BII", blob[4:13])
        assert (level_byte, count, dim) == (1, 3, 4)
        assert len(blob) == 13 + 4 * 3 * 4
        first = struct.unpack("<f", blob[13:17])[0]
        assert first == pytest.approx(descs.vectors[0, 0], abs=1e-6)

    def test_rejects_truncated(self, tmp_path, rng):
        descs = self._descriptors(rng)
        path = tmp_path / "d.hdrg"
        io.save_descriptors(path, descs)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValidationError):
            io.load_descriptors(path)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "d.hdrg"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValidationError):
            io.load_descriptors(path)
