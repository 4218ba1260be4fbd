import json
import math

import numpy as np
import pytest

from wsp.cli import main
from wsp.data import (
    GeneratorConfig,
    Slice,
    Volume,
    clip_intensity,
    generate_synthetic_dataset,
    load_dataset,
    normalize_depth,
    save_dataset,
    select_central_slices,
)
from wsp.errors import ConfigError, ContractError, DomainError, FormatError


class TestNormalizeDepth:
    def test_values(self):
        assert normalize_depth(50, 100) == 0.5
        assert normalize_depth(0, 7) == 0.0
        assert normalize_depth(7, 7) == 1.0
        assert normalize_depth(1, 3) == 1.0 / 3.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            normalize_depth(5, 0)
        with pytest.raises(DomainError):
            normalize_depth(-1, 10)
        with pytest.raises(DomainError):
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
        m1, v1 = generate_synthetic_dataset(cfg, seed=3)
        m2, v2 = generate_synthetic_dataset(cfg, seed=3)
        assert m1 == m2
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
        manifest, volumes = generate_synthetic_dataset(cfg, seed=1)
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        save_dataset(manifest, volumes, d1)
        loaded_manifest, loaded_volumes = load_dataset(d1)
        save_dataset(loaded_manifest, loaded_volumes, d2)
        for f1 in sorted(d1.iterdir()):
            assert (d2 / f1.name).read_bytes() == f1.read_bytes()

    def test_labels_survive_round_trip(self, tmp_path):
        cfg = GeneratorConfig(n_volumes=3, slices_per_volume=4)
        manifest, volumes = generate_synthetic_dataset(cfg, seed=1)
        save_dataset(manifest, volumes, tmp_path)
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

    def test_corrupted_magic_rejected(self, tmp_path):
        cfg = GeneratorConfig(n_volumes=1, slices_per_volume=2)
        manifest, volumes = generate_synthetic_dataset(cfg, seed=1)
        save_dataset(manifest, volumes, tmp_path)
        victim = tmp_path / manifest.volumes[0]["file"]
        blob = bytearray(victim.read_bytes())
        blob[:4] = b"JUNK"
        victim.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_dataset(tmp_path)

    def test_truncated_volume_rejected_with_offset(self, tmp_path):
        cfg = GeneratorConfig(n_volumes=1, slices_per_volume=2)
        manifest, volumes = generate_synthetic_dataset(cfg, seed=1)
        save_dataset(manifest, volumes, tmp_path)
        victim = tmp_path / manifest.volumes[0]["file"]
        blob = victim.read_bytes()
        victim.write_bytes(blob[:-7])
        with pytest.raises(FormatError) as err:
            load_dataset(tmp_path)
        assert err.value.offset is not None

    def test_missing_file_named_in_error(self, tmp_path):
        cfg = GeneratorConfig(n_volumes=2, slices_per_volume=2)
        manifest, volumes = generate_synthetic_dataset(cfg, seed=1)
        save_dataset(manifest, volumes, tmp_path)
        missing = manifest.volumes[1]["file"]
        (tmp_path / missing).unlink()
        with pytest.raises(FormatError, match=missing):
            load_dataset(tmp_path)

    def test_duplicate_volume_id_rejected(self, tmp_path):
        cfg = GeneratorConfig(n_volumes=2, slices_per_volume=2)
        manifest, volumes = generate_synthetic_dataset(cfg, seed=1)
        save_dataset(manifest, volumes, tmp_path)
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
        manifest, volumes = generate_synthetic_dataset(cfg, seed=1)
        save_dataset(manifest, volumes, tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["volumes"][1][key] = value
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=key):
            load_dataset(tmp_path)
        assert main(["pretrain", "--data", str(tmp_path), "--out", str(tmp_path / "c.ckpt")]) == 3

    @staticmethod
    def dataset_with_record(tmp_path, edit):
        """A saved two-volume dataset under tmp_path/set whose second record is ``edit(record)``."""
        manifest, volumes = generate_synthetic_dataset(GeneratorConfig(n_volumes=2, slices_per_volume=2), seed=1)
        root = tmp_path / "set"
        save_dataset(manifest, volumes, root)
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
        manifest, volumes = generate_synthetic_dataset(GeneratorConfig(n_volumes=2, slices_per_volume=2), seed=1)
        save_dataset(manifest, volumes, tmp_path)
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
