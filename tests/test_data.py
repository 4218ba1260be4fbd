import hashlib
import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from wsp.cli import main
from wsp.data import (
    GeneratorConfig,
    Slice,
    Volume,
    central_view,
    clip_intensity,
    generate_synthetic_dataset,
    load_dataset,
    normalize_depth,
    save_dataset,
    select_central_slices,
)
from wsp.errors import ConfigError, ContractError, FormatError, NonFiniteError


class TestNormalizeDepth:
    def test_values(self):
        assert normalize_depth(50, 100) == 0.5
        assert normalize_depth(0, 7) == 0.0
        assert normalize_depth(7, 7) == 1.0
        assert normalize_depth(1, 3) == 1.0 / 3.0

    def test_domain_errors(self):
        with pytest.raises(ContractError):
            normalize_depth(5, 0)
        with pytest.raises(ContractError):
            normalize_depth(-1, 10)
        with pytest.raises(ContractError):
            normalize_depth(11, 10)

    def test_monotone(self):
        values = [normalize_depth(p, 40) for p in range(41)]
        assert values == sorted(values)


def make_volume(n, v_max=None):
    v_max = (n - 1) if v_max is None and n > 1 else (v_max or 1)
    slices = [
        Slice(pixels=np.full((4, 4), float(p), dtype=np.float32), p=p, d=p / v_max)
        for p in range(n)
    ]
    return Volume(volume_id="V", patient_id="P", v_max=v_max, slices=slices, y_weak=0, y_strong=1)


class TestSelectCentral:
    def test_ten_slices_keep_seven(self):
        out = select_central_slices(make_volume(10), 0.7)
        assert [s.p for s in out.slices] == [1, 2, 3, 4, 5, 6, 7]

    def test_full_fraction_is_identity(self):
        vol = make_volume(9)
        out = select_central_slices(vol, 1.0)
        assert [s.p for s in out.slices] == [s.p for s in vol.slices]

    def test_single_slice_retained(self):
        out = select_central_slices(make_volume(1), 0.7)
        assert len(out.slices) == 1

    def test_count_rule_exhaustive(self):
        for n in range(1, 101):
            out = select_central_slices(make_volume(n), 0.7)
            assert len(out.slices) == math.floor(0.7 * n + 0.5)
            kept = [s.p for s in out.slices]
            assert kept == list(range(kept[0], kept[0] + len(kept)))  # contiguous window

    def test_bad_inputs(self):
        with pytest.raises(ContractError):
            select_central_slices(make_volume(5), 0.0)
        empty = make_volume(3)
        empty.slices = []
        with pytest.raises(ContractError):
            select_central_slices(empty, 0.7)
        with pytest.raises(ConfigError, match="volume V.s 6 slices"):
            select_central_slices(make_volume(6), 0.01)  # keeps round(0.06) = 0 slices


class TestClipIntensity:
    def test_clamp_floor(self):
        assert clip_intensity(np.array([-500.0]))[0] == 0.0

    def test_endpoints_and_midpoint(self):
        out = clip_intensity(np.array([400.0, 150.0, -100.0]))
        np.testing.assert_allclose(out, [1.0, 0.5, 0.0])

    def test_monotone_inside_range(self):
        values = np.linspace(-100, 400, 33)
        out = clip_intensity(values)
        assert np.all(np.diff(out) > 0)
        assert out[0] == 0.0 and out[-1] == 1.0

    def test_bad_bounds(self):
        with pytest.raises(ConfigError):
            clip_intensity(np.zeros(3), lo=10.0, hi=10.0)


class TestGenerator:
    def test_deterministic(self):
        cfg = GeneratorConfig(n_volumes=4, slices_per_volume=5)
        g1, v1 = generate_synthetic_dataset(cfg, seed=3)
        g2, v2 = generate_synthetic_dataset(cfg, seed=3)
        assert g1 == g2
        for a, b in zip(v1, v2):
            assert a.y_weak == b.y_weak and a.y_strong == b.y_strong
            for sa, sb in zip(a.slices, b.slices):
                assert np.array_equal(sa.pixels, sb.pixels)

    def test_different_seeds_differ(self):
        cfg = GeneratorConfig(n_volumes=2, slices_per_volume=3)
        _, v1 = generate_synthetic_dataset(cfg, seed=0)
        _, v2 = generate_synthetic_dataset(cfg, seed=1)
        assert any(
            not np.array_equal(a.slices[0].pixels, b.slices[0].pixels) for a, b in zip(v1, v2)
        )

    def test_zero_noise_labels_match_severity_quartiles(self):
        cfg = GeneratorConfig(n_volumes=40, slices_per_volume=2, noise_rate=0.0)
        _, volumes = generate_synthetic_dataset(cfg, seed=5)
        for v in volumes:
            assert v.y_weak == min(int(v.latent_severity * 4), 3)
            assert v.y_strong == (1 if v.latent_severity > 0.5 else 0)

    def test_depth_invariants(self):
        cfg = GeneratorConfig(n_volumes=2, slices_per_volume=9)
        _, volumes = generate_synthetic_dataset(cfg, seed=2)
        for v in volumes:
            assert v.v_max == 8
            depths = [s.d for s in v.slices]
            assert depths[0] == 0.0 and depths[-1] == 1.0
            assert depths == sorted(depths)

    def test_pixels_in_unit_range(self):
        cfg = GeneratorConfig(n_volumes=2, slices_per_volume=3)
        _, volumes = generate_synthetic_dataset(cfg, seed=2)
        for v in volumes:
            for s in v.slices:
                assert s.pixels.dtype == np.float32
                assert float(s.pixels.min()) >= 0.0 and float(s.pixels.max()) <= 1.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(n_volumes=0)
        with pytest.raises(ConfigError):
            GeneratorConfig(class_priors=(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ConfigError):
            GeneratorConfig(noise_rate=1.5)
        with pytest.raises(ConfigError):
            GeneratorConfig(contour_amplitudes=(0.1, 0.1))

    @pytest.mark.parametrize(
        "field, value",
        [("depth_gain", float("nan")), ("center_jitter", float("nan")), ("aspect_jitter", -5.0),
         ("aspect_jitter", 1e308), ("lobes", (-3,)), ("lobes", (5.5, 9)), ("pixel_noise", 10**400),
         ("class_priors", (float("nan"), 0.5, 0.25, 0.25)), ("contour_amplitudes", (float("nan"), 0.1, 0.1, 0.1))],
        ids=["depth_gain-nan", "center_jitter-nan", "aspect_jitter-negative", "aspect_jitter-huge", "lobes-short",
             "lobes-float", "pixel_noise-huge-int", "class_priors-nan", "contour_amplitudes-nan"],
    )
    def test_bad_field_value_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            GeneratorConfig(**{field: value})


class TestDiskFormat:
    def test_round_trip_byte_identity(self, tmp_path):
        cfg = GeneratorConfig(n_volumes=3, slices_per_volume=4)
        generator, volumes = generate_synthetic_dataset(cfg, seed=1)
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        save_dataset(generator, volumes, d1)
        loaded_generator, loaded_volumes = load_dataset(d1)
        save_dataset(loaded_generator, loaded_volumes, d2)
        for f1 in sorted(d1.iterdir()):
            assert (d2 / f1.name).read_bytes() == f1.read_bytes()

    def test_labels_survive_round_trip(self, tmp_path):
        cfg = GeneratorConfig(n_volumes=3, slices_per_volume=4)
        generator, volumes = generate_synthetic_dataset(cfg, seed=1)
        save_dataset(generator, volumes, tmp_path)
        _, loaded = load_dataset(tmp_path)
        for a, b in zip(volumes, loaded):
            assert (a.volume_id, a.patient_id, a.y_weak, a.y_strong) == (
                b.volume_id,
                b.patient_id,
                b.y_weak,
                b.y_strong,
            )
            assert b.latent_severity == pytest.approx(a.latent_severity)
            for sa, sb in zip(a.slices, b.slices):
                assert np.array_equal(sa.pixels, sb.pixels)
                assert sa.p == sb.p and sa.d == sb.d

    def test_golden_bytes(self, tmp_path):
        # Pins the on-disk bytes of a small generated dataset across versions, not only between two runs.
        save_dataset(*generate_synthetic_dataset(GeneratorConfig(n_volumes=3, slices_per_volume=4), 1), tmp_path)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("manifest.json", "V000.wspv")}
        assert digests == {
            "manifest.json": "63d63233c1c681c852c9936e60b0236e6af6e69fe198a591f91b2d0e354b4153",
            "V000.wspv": "729a4ba2f0043d625099bee3901780b7ae45bb6a958f8ba4fa80d54a4605c540",
        }

    @staticmethod
    def assert_same_volumes(loaded, volumes):
        assert [(v.volume_id, v.patient_id, v.v_max, v.y_weak, v.y_strong) for v in loaded] == [
            (v.volume_id, v.patient_id, v.v_max, v.y_weak, v.y_strong) for v in volumes
        ]
        for a, b in zip(loaded, volumes):
            assert [(s.p, s.d) for s in a.slices] == [(s.p, s.d) for s in b.slices]
            assert all(np.array_equal(sa.pixels, sb.pixels) for sa, sb in zip(a.slices, b.slices))

    def test_subset_of_volumes_saves_and_loads(self, tmp_path):
        generator, volumes = generate_synthetic_dataset(GeneratorConfig(n_volumes=4, slices_per_volume=3), seed=1)
        save_dataset(generator, volumes[:2], tmp_path)
        loaded_generator, loaded = load_dataset(tmp_path)
        self.assert_same_volumes(loaded, volumes[:2])
        assert loaded_generator == json.loads(json.dumps(generator))
        assert sorted(f.name for f in tmp_path.iterdir()) == ["V000.wspv", "V001.wspv", "manifest.json"]

    def test_trimmed_volumes_save_and_load(self, tmp_path):
        generator, volumes = generate_synthetic_dataset(GeneratorConfig(n_volumes=3, slices_per_volume=10), seed=1)
        trimmed = central_view(volumes)
        save_dataset(generator, trimmed, tmp_path)
        _, loaded = load_dataset(tmp_path)
        self.assert_same_volumes(loaded, trimmed)
        assert [s.p for s in loaded[0].slices] == [1, 2, 3, 4, 5, 6, 7]
        assert all(v.v_max == 9 for v in loaded)

    def test_relabelled_volume_saves_its_new_label(self, tmp_path):
        generator, volumes = generate_synthetic_dataset(GeneratorConfig(n_volumes=2, slices_per_volume=2), seed=1)
        relabelled = [replace(volumes[0], y_strong=1 - volumes[0].y_strong), volumes[1]]
        save_dataset(generator, relabelled, tmp_path)
        _, loaded = load_dataset(tmp_path)
        assert loaded[0].y_strong == 1 - volumes[0].y_strong
        self.assert_same_volumes(loaded, relabelled)

    @pytest.mark.parametrize("vid", ["../x", "a/b", "", ".", "..", "a\0b", "V000"],
                             ids=["parent", "separator", "empty", "dot", "dot-dot", "nul", "duplicate"])
    def test_volume_id_that_is_not_a_plain_unique_file_name_rejected(self, tmp_path, vid):
        generator, volumes = generate_synthetic_dataset(GeneratorConfig(n_volumes=2, slices_per_volume=2), seed=1)
        with pytest.raises(ContractError, match="plain file name"):
            save_dataset(generator, [volumes[0], replace(volumes[1], volume_id=vid)], tmp_path / "set")
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def with_pixels(volume, pixels):
        """``volume`` with every slice's image replaced by ``pixels(slice image)``."""
        return replace(volume, slices=[replace(s, pixels=pixels(s.pixels)) for s in volume.slices])

    @staticmethod
    def with_v_max(volume, v_max):
        return replace(volume, v_max=v_max, slices=[replace(s, d=s.p / v_max) for s in volume.slices])

    @pytest.mark.parametrize("edit, error, match", [
        (lambda g, v: (g, [v[0], replace(v[1], patient_id=v[0].patient_id, y_weak=v[0].y_weak + 1)]),
         ContractError, "P000"),
        (lambda g, v: (g, [v[0], TestDiskFormat.with_pixels(v[1], lambda p: p[:2, :2])]), ContractError,
         r"image size \(2, 2\) differs from \(32, 32\)"),
        (lambda g, v: (g, [TestDiskFormat.with_pixels(v[0], lambda p: p[:0, :0]), v[1]]), ContractError,
         r"image size \(0, 0\) is empty"),
        (lambda g, v: (g, [v[0], replace(v[1], y_strong=2)]), ContractError, "y_strong"),
        (lambda g, v: (g, [v[0], replace(v[1], y_weak=-1)]), ContractError, "y_weak"),
        (lambda g, v: (g, [v[0], TestDiskFormat.with_pixels(v[1], lambda p: p * 0 + 2.0)]), ContractError,
         r"volume V001 slice pixels must be in \[0, 1\], got 2.0"),
        (lambda g, v: (g, [v[0], TestDiskFormat.with_pixels(v[1], lambda p: p * np.nan)]), NonFiniteError,
         "slice pixels must be in"),
        (lambda g, v: (g, [v[0], replace(v[1], patient_id=7)]), ContractError, "patient_id must be a string"),
        (lambda g, v: (g, []), ContractError, "non-empty list"),
        (lambda g, v: ([1], v), ContractError, "'generator' must be an object or null"),
        (lambda g, v: (g, [v[0], TestDiskFormat.with_v_max(v[1], 2**33)]), ContractError, "v_max must lie in"),
        (lambda g, v: ({**g, "note": np.float32(0.5)}, v), ContractError, "cannot write a value as JSON"),
    ], ids=["patient-labels", "mixed-sizes", "empty-images", "y_strong-2", "y_weak-negative", "pixels-2", "pixels-nan",
            "patient_id-int", "no-volumes", "generator-list", "v_max-2**33", "generator-float32"])
    def test_writer_refuses_what_the_reader_refuses_before_writing(self, tmp_path, edit, error, match):
        generator, volumes = generate_synthetic_dataset(GeneratorConfig(n_volumes=2, slices_per_volume=2), seed=1)
        with pytest.raises(error, match=match):
            save_dataset(*edit(generator, volumes), tmp_path / "set")
        assert list(tmp_path.iterdir()) == []

    def test_numpy_integers_are_written_as_integers(self, tmp_path):
        generator, volumes = generate_synthetic_dataset(GeneratorConfig(n_volumes=2, slices_per_volume=2), seed=1)
        as_numpy = [replace(self.with_v_max(v, np.int64(v.v_max)), y_weak=np.int64(v.y_weak),
                            y_strong=np.int64(v.y_strong)) for v in volumes]
        save_dataset(generator, volumes, tmp_path / "int")
        save_dataset(generator, as_numpy, tmp_path / "numpy")
        for name in ("manifest.json", "V000.wspv", "V001.wspv"):
            assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "int" / name).read_bytes()
        _, loaded = load_dataset(tmp_path / "numpy")
        self.assert_same_volumes(loaded, as_numpy)

    def test_corrupted_magic_rejected(self, tmp_path):
        cfg = GeneratorConfig(n_volumes=1, slices_per_volume=2)
        generator, volumes = generate_synthetic_dataset(cfg, seed=1)
        save_dataset(generator, volumes, tmp_path)
        victim = tmp_path / f"{volumes[0].volume_id}.wspv"
        blob = bytearray(victim.read_bytes())
        blob[:4] = b"JUNK"
        victim.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_dataset(tmp_path)

    def test_truncated_volume_rejected_with_offset(self, tmp_path):
        cfg = GeneratorConfig(n_volumes=1, slices_per_volume=2)
        generator, volumes = generate_synthetic_dataset(cfg, seed=1)
        save_dataset(generator, volumes, tmp_path)
        victim = tmp_path / f"{volumes[0].volume_id}.wspv"
        blob = victim.read_bytes()
        victim.write_bytes(blob[:-7])
        with pytest.raises(FormatError) as err:
            load_dataset(tmp_path)
        assert err.value.offset is not None

    @staticmethod
    def _overwrite(tmp_path, offset, packed):
        """A saved one-volume dataset whose volume file holds ``packed`` at byte ``offset``."""
        generator, volumes = generate_synthetic_dataset(GeneratorConfig(n_volumes=1, slices_per_volume=2), seed=1)
        save_dataset(generator, volumes, tmp_path)
        victim = tmp_path / f"{volumes[0].volume_id}.wspv"
        blob = bytearray(victim.read_bytes())
        blob[offset : offset + len(packed)] = packed
        victim.write_bytes(bytes(blob))

    # Volume file layout: magic (4), version (2), h, w, n_slices, V_max (u32 each), then per slice p (u32) and pixels.
    @pytest.mark.parametrize("offset, value, match", [(18, 0, "V_max"), (22, 2, "exceeds V_max")],
                             ids=["v_max-zero", "depth-beyond-v_max"])
    def test_bad_depth_header_rejected_with_offset(self, tmp_path, offset, value, match):
        self._overwrite(tmp_path, offset, struct.pack("<I", value))
        with pytest.raises(FormatError, match=match) as err:
            load_dataset(tmp_path)
        assert err.value.offset == offset

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.25, 1.5])
    def test_pixel_outside_unit_range_rejected_with_offset(self, tmp_path, value):
        at = 26 + 4 * 37  # the 38th pixel of the first slice
        self._overwrite(tmp_path, at, struct.pack("<f", value))
        with pytest.raises(FormatError, match="slice pixels") as err:
            load_dataset(tmp_path)
        assert err.value.offset == at

    def test_missing_file_named_in_error(self, tmp_path):
        cfg = GeneratorConfig(n_volumes=2, slices_per_volume=2)
        generator, volumes = generate_synthetic_dataset(cfg, seed=1)
        save_dataset(generator, volumes, tmp_path)
        missing = f"{volumes[1].volume_id}.wspv"
        (tmp_path / missing).unlink()
        with pytest.raises(FormatError, match=missing):
            load_dataset(tmp_path)

    def test_duplicate_volume_id_rejected(self, tmp_path):
        cfg = GeneratorConfig(n_volumes=2, slices_per_volume=2)
        generator, volumes = generate_synthetic_dataset(cfg, seed=1)
        save_dataset(generator, volumes, tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["volumes"][1]["id"] = doc["volumes"][0]["id"]
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="duplicate"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "key, value", [("y_weak", "x"), ("y_weak", 1.5), ("y_strong", "1"), ("v_max", None), ("v_max", True)]
    )
    def test_non_integer_manifest_field_rejected(self, tmp_path, key, value):
        cfg = GeneratorConfig(n_volumes=2, slices_per_volume=2)
        generator, volumes = generate_synthetic_dataset(cfg, seed=1)
        save_dataset(generator, volumes, tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["volumes"][1][key] = value
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=key):
            load_dataset(tmp_path)
        assert main(["pretrain", "--data", str(tmp_path), "--out", str(tmp_path / "c.ckpt")]) == 3

    @staticmethod
    def dataset_with_record(tmp_path, edit):
        """A saved two-volume dataset under tmp_path/set whose second record is ``edit(record)``."""
        generator, volumes = generate_synthetic_dataset(GeneratorConfig(n_volumes=2, slices_per_volume=2), seed=1)
        root = tmp_path / "set"
        save_dataset(generator, volumes, root)
        doc = json.loads((root / "manifest.json").read_text())
        doc["volumes"][1] = edit(doc["volumes"][1])
        (root / "manifest.json").write_text(json.dumps(doc))
        return root

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: {**doc, "volumes": {"V0000": {}}},
            lambda doc: {**doc, "generator": [1]},
            lambda doc: {**doc, "generator": {**doc["generator"], "latent_severity": [0.5, 0.7]}},
        ],
        ids=["volumes-not-list", "generator-not-object", "severities-not-object"],
    )
    def test_malformed_manifest_sections_rejected(self, tmp_path, edit):
        generator, volumes = generate_synthetic_dataset(GeneratorConfig(n_volumes=2, slices_per_volume=2), seed=1)
        save_dataset(generator, volumes, tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        (tmp_path / "manifest.json").write_text(json.dumps(edit(doc)))
        with pytest.raises(FormatError, match="must be a"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("record", [5, "V0001", ["V0001"], None])
    def test_non_object_volume_record_rejected(self, tmp_path, record):
        root = self.dataset_with_record(tmp_path, lambda _: record)
        with pytest.raises(FormatError, match="JSON object"):
            load_dataset(root)

    @pytest.mark.parametrize("value", [7, None, ["a.wspv"], {"path": "a.wspv"}])
    @pytest.mark.parametrize("key", ["file", "id", "patient_id"])
    def test_non_string_record_field_rejected(self, tmp_path, key, value):
        root = self.dataset_with_record(tmp_path, lambda r: {**r, key: value})
        with pytest.raises(FormatError, match=f"{key} must be a string"):
            load_dataset(root)

    @pytest.mark.parametrize("where", ["parent", "absolute"])
    def test_file_outside_dataset_directory_rejected(self, tmp_path, where):
        outside = tmp_path / "outside" / "x.wspv"
        outside.parent.mkdir()

        def escape(record):
            outside.write_bytes((tmp_path / "set" / record["file"]).read_bytes())
            return {**record, "file": "../outside/x.wspv" if where == "parent" else str(outside)}

        root = self.dataset_with_record(tmp_path, escape)
        with pytest.raises(FormatError, match="outside the dataset directory"):
            load_dataset(root)

    def test_file_in_subdirectory_loads(self, tmp_path):
        def move(record):
            (tmp_path / "set" / "sub").mkdir()
            (tmp_path / "set" / record["file"]).rename(tmp_path / "set" / "sub" / record["file"])
            return {**record, "file": f"sub/{record['file']}"}

        _, volumes = load_dataset(self.dataset_with_record(tmp_path, move))
        assert len(volumes) == 2

    @pytest.mark.parametrize("value", [7, 2, -1])
    def test_non_binary_y_strong_rejected(self, tmp_path, value):
        root = self.dataset_with_record(tmp_path, lambda r: {**r, "y_strong": value})
        with pytest.raises(FormatError, match="y_strong"):
            load_dataset(root)

    def test_negative_y_weak_rejected(self, tmp_path):
        root = self.dataset_with_record(tmp_path, lambda r: {**r, "y_weak": -1})
        with pytest.raises(FormatError, match="y_weak"):
            load_dataset(root)

    @pytest.mark.parametrize("key, value", [("y_weak", 2**63), ("y_weak", 2**70), ("v_max", 0)])
    def test_out_of_range_record_field_is_data_error(self, tmp_path, key, value):
        root = self.dataset_with_record(tmp_path, lambda r: {**r, key: value})
        with pytest.raises(FormatError, match=key):
            load_dataset(root)
        assert main(["pretrain", "--data", str(root), "--out", str(tmp_path / "c.ckpt")]) == 3

    def test_largest_int64_y_weak_loads(self, tmp_path):
        _, volumes = load_dataset(self.dataset_with_record(tmp_path, lambda r: {**r, "y_weak": 2**63 - 1}))
        assert volumes[1].y_weak == 2**63 - 1

    @pytest.mark.parametrize("version", ["x", 2, 1.0, True, None])
    def test_manifest_version_must_be_one(self, tmp_path, version):
        root = self.dataset_with_record(tmp_path, lambda r: r)
        doc = json.loads((root / "manifest.json").read_text())
        (root / "manifest.json").write_text(json.dumps({**doc, "version": version}))
        with pytest.raises(FormatError, match="version"):
            load_dataset(root)

    def test_file_name_with_nul_rejected(self, tmp_path):
        root = self.dataset_with_record(tmp_path, lambda r: {**r, "file": "V001\u0000.wspv"})
        with pytest.raises(FormatError, match="NUL"):
            load_dataset(root)

    @pytest.mark.parametrize("raw", [b'{"version": 1, "volumes": [], "note": "\xff"}', b"[" * 100000 + b"]" * 100000],
                             ids=["invalid-utf8", "deeply-nested"])
    def test_undecodable_manifest_is_data_error(self, tmp_path, capsys, raw):
        root = self.dataset_with_record(tmp_path, lambda r: r)
        (root / "manifest.json").write_bytes(raw)
        with pytest.raises(FormatError, match="not valid UTF-8 JSON"):
            load_dataset(root)
        assert main(["pretrain", "--data", str(root), "--out", str(tmp_path / "c.ckpt")]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def one_patient_dataset(self, tmp_path, **second):
        """A saved two-volume dataset whose volumes both belong to patient P000 with labels (2, 1); ``second``
        overrides keys of the second record."""
        root = self.dataset_with_record(tmp_path, lambda r: r)
        doc = json.loads((root / "manifest.json").read_text())
        for record in doc["volumes"]:
            record.update(patient_id="P000", y_weak=2, y_strong=1)
        doc["volumes"][1].update(second)
        (root / "manifest.json").write_text(json.dumps(doc))
        return root

    @pytest.mark.parametrize("key, value", [("y_weak", 3), ("y_strong", 0), ("y_strong", None)])
    def test_patient_volumes_must_agree_on_labels(self, tmp_path, key, value):
        root = self.one_patient_dataset(tmp_path, **{key: value})
        with pytest.raises(FormatError, match="P000"):
            load_dataset(root)
        assert main(["pretrain", "--data", str(root), "--out", str(tmp_path / "c.ckpt")]) == 3

    def test_patient_volumes_with_equal_labels_load(self, tmp_path):
        _, volumes = load_dataset(self.one_patient_dataset(tmp_path))
        assert [(v.patient_id, v.y_weak, v.y_strong) for v in volumes] == [("P000", 2, 1)] * 2

    def test_volume_invariants_enforced(self):
        with pytest.raises(ContractError):
            make_volume(3, v_max=1)  # depth 2 exceeds V_max
        with pytest.raises(ContractError):
            Volume(
                volume_id="V",
                patient_id="P",
                v_max=4,
                slices=[Slice(pixels=np.zeros((2, 2), dtype=np.float32), p=0, d=0.5)],
                y_weak=0,
            )
