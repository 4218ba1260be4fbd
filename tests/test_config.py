"""The per-field type-and-range rules of the config dataclasses, at every boundary that builds one."""

import contextlib
import dataclasses
import io
import json
import re
import shutil
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsp.cli import _SECTIONS, _section_keys, load_run_config, main
from wsp.data import GeneratorConfig, generate_synthetic_dataset, load_dataset, save_dataset
from wsp.encoders import EncoderCheckpoint, EncoderConfig, init_encoder, load_checkpoint, save_checkpoint
from wsp.errors import U32_MAX, ConfigError, ContractError, FormatError, NonFiniteError, WspError, build_config
from wsp.errors import check_fields, check_value, field_types
from wsp.evaluation import ProbeConfig
from wsp.losses import LossConfig
from wsp.sampling import AugmentConfig, BatchSpec
from wsp.training import OptimConfig

from oracles import rewrite_checkpoint_header

CONFIG_CLASSES = [GeneratorConfig, EncoderConfig, LossConfig, OptimConfig, ProbeConfig, AugmentConfig, BatchSpec]
SCALARS = (int, float, bool, str)
FIELDS = [(cls, field.name) for cls in CONFIG_CLASSES for field in dataclasses.fields(cls)]


def entry_kind(cls, name):
    """The annotated type of a field, or of its entries for a tuple field."""
    hint = typing.get_type_hints(cls)[name]
    return typing.get_args(hint)[0] if typing.get_origin(hint) is tuple else hint


# Every int field but a seed is a size, count or index, which the file formats store as u32.
SIZE_FIELDS = [(cls, name) for cls, name in FIELDS if name != "seed" and entry_kind(cls, name) is int]
HOSTILE = [float("nan"), float("inf"), float("-inf"), 10**400, -1, True, "x", None, [], {}]


def hostile_values(cls, name):
    """JSON-shaped hostile values for one field: the shared list, plus bad lists for a tuple field."""
    default = getattr(cls(), name)
    if not isinstance(default, tuple):
        return HOSTILE
    return [*HOSTILE, [*default, default[0]], list(default[:-1]), [float("nan"), *default[1:]]]


def edit_dataset(data, generator, volumes):
    """One random edit of the ``(generator, volumes)`` that a caller passes to ``save_dataset``."""
    kinds = ["subset", "merge", "generator", "label", "id", "patient", "v_max", "size", "pixel"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "subset":
        return generator, [v for v in volumes if data.draw(st.booleans())]
    if kind == "generator":
        record = generator if isinstance(generator, dict) else {}
        return data.draw(st.sampled_from([None, [1], {"latent_severity": [1]}, {**record, "seed": np.int64(3)},
                                          {**record, "note": np.float32(1)}])), volumes
    if not volumes:
        return generator, volumes
    i, j = data.draw(st.integers(0, len(volumes) - 1)), data.draw(st.integers(0, len(volumes) - 1))
    volume = volumes[j]
    if kind == "merge":
        volume = dataclasses.replace(volume, patient_id=volumes[i].patient_id)
    elif kind == "label":
        label = data.draw(st.sampled_from([0, 1, 2, 3, -1, 2**63 - 1, 2**63, np.int64(1), np.int64(-1), 1.0, "1",
                                           True, None]))
        volume = dataclasses.replace(volume, **{data.draw(st.sampled_from(["y_weak", "y_strong"])): label})
    elif kind == "id":
        vid = data.draw(st.sampled_from(["", ".", "..", "a/b", "x\0", "fresh", volumes[i].volume_id, 7]))
        volume = dataclasses.replace(volume, volume_id=vid)
    elif kind == "patient":
        volume = dataclasses.replace(volume, patient_id=data.draw(st.sampled_from(["P999", 7, None])))
    elif kind == "v_max":
        v_max = data.draw(st.sampled_from([2, 9, np.int64(4), U32_MAX, U32_MAX + 1, 2**33]))
        slices = [dataclasses.replace(s, d=s.p / v_max) for s in volume.slices]
        volume = dataclasses.replace(volume, v_max=v_max, slices=slices)
    elif kind == "size":
        shape = data.draw(st.sampled_from([(4, 4), (2, 4), (0, 0), (16,), (4, 4, 1)]))
        first_only = data.draw(st.booleans())
        slices = [s if first_only and k else dataclasses.replace(s, pixels=np.full(shape, 0.5, np.float32))
                  for k, s in enumerate(volume.slices)]
        volume = dataclasses.replace(volume, slices=slices)
    elif volume.slices[0].pixels.size:  # a pixel value of the first slice
        pixels = volume.slices[0].pixels.copy()
        pixels.flat[data.draw(st.integers(0, pixels.size - 1))] = data.draw(st.sampled_from(
            [0.0, 1.0, 0.25, -0.5, 2.0, np.nan, np.inf]))
        volume = dataclasses.replace(volume, slices=[dataclasses.replace(volume.slices[0], pixels=pixels),
                                                     *volume.slices[1:]])
    return generator, [*volumes[:j], volume, *volumes[j + 1 :]]


def edit_checkpoint(data, ckpt):
    """One random edit of a checkpoint that a caller passes to ``save_checkpoint``."""
    params = dict(ckpt.params)
    name = data.draw(st.sampled_from(list(params)))
    kind = data.draw(st.sampled_from(["value", "shape", "names", "step", "loss_kind", "loss_sigma"]))
    if kind == "value":
        values = params[name].copy()
        values.flat[data.draw(st.integers(0, values.size - 1))] = data.draw(st.sampled_from(
            [0.5, -3.0, 1e308, np.nan, np.inf, -np.inf]))
        params[name] = values
    elif kind == "shape":
        shape = params[name].shape
        params[name] = np.zeros(data.draw(st.sampled_from([(), (1,), shape[::-1], (*shape, 1)])))
    elif kind == "names":
        edit = data.draw(st.sampled_from(["drop", "move-last", "extra"]))
        values = params.pop(name)
        params.update({"move-last": {name: values}, "extra": {name: values, "extra": np.zeros(1)}}.get(edit, {}))
    header = {}
    if kind == "step":
        header[kind] = data.draw(st.sampled_from([0, 7, np.int64(7), 2**70, -1, 1.5, "3", True, None]))
    elif kind == "loss_kind":
        header[kind] = data.draw(st.sampled_from(["wsp", "", 5, None]))
    elif kind == "loss_sigma":
        header[kind] = data.draw(st.sampled_from([None, 0.2, np.float64(0.3), np.int64(2), np.nan, np.inf, "0.1",
                                                  10**400, np.float32(0.5)]))
    return dataclasses.replace(ckpt, params=params, **header)


class TestRuleTable:
    @pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
    def test_every_field_has_a_checked_type(self, cls):
        # Constructing the defaults runs check_fields, which raises ContractError
        # for an int or float field (or tuple entry) with no declared rule.
        cls()
        for name, hint in typing.get_type_hints(cls).items():
            if (cls, name) == (OptimConfig, "loss"):
                assert hint is LossConfig
                continue
            if typing.get_origin(hint) is tuple:
                entry, *rest = typing.get_args(hint)
                assert entry in SCALARS and set(rest) <= {entry, Ellipsis}, f"{cls.__name__}.{name}: {hint}"
            else:
                assert hint in SCALARS, f"{cls.__name__}.{name}: {hint}"

    def test_field_without_rule_fails(self):
        @dataclasses.dataclass(frozen=True)
        class Unruled:
            size: typing.Annotated[int, "[1, inf)"] = 1
            widths: tuple[float, ...] = (1.0,)

            def __post_init__(self):
                check_fields(self)

        with pytest.raises(ContractError, match="widths"):
            Unruled()

    @pytest.mark.parametrize("cls, name", FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in FIELDS])
    def test_every_rule_is_declared_on_its_field(self, cls, name):
        # Each rule is the metadata of its field's annotation, so no rule can name a field that does not exist.
        hint, kind = field_types(cls)[name], entry_kind(cls, name)
        rules = typing.get_args(hint)[1:] if typing.get_origin(hint) is typing.Annotated else ()
        if kind in (int, float) or (kind is str and rules):
            assert len(rules) == 1, f"{cls.__name__}.{name}: {rules}"
        else:
            assert not rules, f"a {kind.__name__} field carries a rule: {cls.__name__}.{name}: {rules}"
            return
        (rule,) = rules
        if kind is str:
            assert isinstance(rule, tuple) and rule and all(isinstance(value, str) for value in rule), rule
        else:
            lo, hi = map(float, rule[1:-1].split(","))
            assert rule[0] in "[(" and rule[-1] in "])" and lo <= hi, rule
        default = getattr(cls(), name)
        for entry in default if isinstance(default, tuple) else (default,):
            check_value(name, entry, kind, rule)

    @pytest.mark.parametrize(
        "rule, inside, outside",
        [("[0, 1)", [0, 0.5], [1, -0.1]), ("(0, inf)", [1e-300, 10**300], [0]), ("[2, 2]", [2], [1, 3])],
    )
    def test_interval_bounds(self, rule, inside, outside):
        @dataclasses.dataclass(frozen=True)
        class One:
            x: typing.Annotated[float, rule] = 2.0

            def __post_init__(self):
                check_fields(self)

        for value in inside:
            One(value)
        for value in outside:
            with pytest.raises(ConfigError, match=r"x must lie in"):
                One(value)

    @pytest.mark.parametrize("cls, name", SIZE_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in SIZE_FIELDS])
    def test_every_integer_size_is_capped_at_u32(self, cls, name):
        default = getattr(cls(), name)
        too_big = (*default[:-1], U32_MAX + 1) if isinstance(default, tuple) else U32_MAX + 1
        with pytest.raises(ConfigError, match=rf"{name}( entries)? must lie in \[\d, {U32_MAX}\]"):
            cls(**{name: too_big})

    @pytest.mark.parametrize("section", _SECTIONS)
    def test_readme_states_the_range_of_every_field(self, section):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        ranges = readme[readme.index("The ranges, per section:") :]
        bullet = re.search(rf"^- `{section}`: (.*?)(?=^- |^$)", ranges, re.M | re.S).group(1)
        missing = [name for name in _section_keys(_SECTIONS[section]) - {"seed"} if f"`{name}`" not in bullet]
        assert not missing, f"README's `{section}` ranges do not name {missing}"

    def test_tuple_fields_are_stored_as_tuples(self):
        cfg = GeneratorConfig(lobes=[3, 4], class_priors=[0.5, 0.5, 0.0, 0.0])
        assert cfg.lobes == (3, 4) and cfg.class_priors == (0.5, 0.5, 0.0, 0.0)
        with pytest.raises(ConfigError, match="lobes"):
            GeneratorConfig(lobes="59")


class TestBoundaryFuzz:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(FIELDS).flatmap(lambda pair: st.tuples(st.just(pair), st.sampled_from(hostile_values(*pair)))))
    def test_run_config_value_is_built_or_config_error(self, case):
        (cls, name), value = case
        try:
            build_config(cls, {name: json.loads(json.dumps(value))}, ConfigError)
        except ConfigError:
            pass

    @pytest.fixture(scope="class")
    def header_checkpoint(self, tmp_path_factory):
        cfg = EncoderConfig(arch="mlp", input_shape=(12,), mlp_hidden=(16,), repr_dim=8, proj_dim=4, proj_hidden=6)
        path = tmp_path_factory.mktemp("fuzz") / "base.ckpt"
        save_checkpoint(EncoderCheckpoint.from_encoder(init_encoder(cfg)), path)
        return path

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_checkpoint_header_value_loads_or_format_error(self, header_checkpoint, data):
        name = data.draw(st.sampled_from([field.name for field in dataclasses.fields(EncoderConfig)]))
        value = data.draw(st.sampled_from(hostile_values(EncoderConfig, name)))
        bad = header_checkpoint.with_name("bad.ckpt")
        bad.write_bytes(rewrite_checkpoint_header(
            header_checkpoint.read_bytes(), lambda h: {**h, "config": {**h["config"], name: value}}
        ))
        try:
            load_checkpoint(bad)
        except FormatError:
            pass

    # Each writer either refuses an input before it writes anything, or writes what its reader returns unchanged.
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_saved_dataset_loads_equal_or_nothing_is_written(self, data):
        generator, volumes = generate_synthetic_dataset(GeneratorConfig(n_volumes=4, slices_per_volume=3, height=4,
                                                                        width=4), seed=1)
        for _ in range(data.draw(st.integers(1, 3))):
            generator, volumes = edit_dataset(data, generator, volumes)
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / "set"
            try:
                save_dataset(generator, volumes, target)
            except (ContractError, NonFiniteError):
                assert not target.exists()
                return
            loaded_generator, loaded = load_dataset(target)
        assert loaded_generator == json.loads(json.dumps(generator, default=int))
        assert [(v.volume_id, v.patient_id, v.v_max, v.y_weak, v.y_strong) for v in loaded] == [
            (v.volume_id, v.patient_id, v.v_max, v.y_weak, v.y_strong) for v in volumes]
        for a, b in zip(loaded, volumes):
            assert [(s.p, s.d) for s in a.slices] == [(s.p, s.d) for s in b.slices]
            stored = [np.asarray(s.pixels, np.float32) for s in b.slices]  # what the writer stores
            assert all(np.array_equal(sa.pixels, pixels) for sa, pixels in zip(a.slices, stored))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_saved_checkpoint_loads_equal_or_nothing_is_written(self, data):
        cfg = EncoderConfig(arch="mlp", input_shape=(12,), mlp_hidden=(16,), repr_dim=8, proj_dim=4, proj_hidden=6)
        ckpt = EncoderCheckpoint.from_encoder(init_encoder(cfg), step=3, loss_kind="wsp", loss_sigma=0.1)
        for _ in range(data.draw(st.integers(1, 3))):
            ckpt = edit_checkpoint(data, ckpt)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.ckpt"
            try:
                save_checkpoint(ckpt, path)
            except (ContractError, NonFiniteError):
                assert not path.exists()
                return
            loaded = load_checkpoint(path)
        assert loaded.config == ckpt.config
        assert list(loaded.params) == list(ckpt.params)
        assert all(np.array_equal(loaded.params[name], ckpt.params[name]) for name in ckpt.params)
        assert (loaded.step, loaded.loss_kind, loaded.loss_sigma) == (ckpt.step, ckpt.loss_kind, ckpt.loss_sigma)

    @pytest.fixture(scope="class")
    def valid_inputs(self, tmp_path_factory):
        """A directory of valid inputs: a 2x2 dataset, an mlp checkpoint that fits it, and a run-config."""
        root = tmp_path_factory.mktemp("inputs")
        cfg = GeneratorConfig(n_volumes=2, slices_per_volume=2, height=4, width=4)
        save_dataset(*generate_synthetic_dataset(cfg, seed=1), root / "data")
        enc_cfg = EncoderConfig(arch="mlp", input_shape=(16,), mlp_hidden=(4,), repr_dim=4, proj_dim=2, proj_hidden=3)
        save_checkpoint(EncoderCheckpoint.from_encoder(init_encoder(enc_cfg)), root / "enc.ckpt")
        (root / "run.json").write_text(json.dumps({"seed": 3, "output_dir": "out", "probe": {"folds": 2}}))
        return root

    # Input kind -> (file to corrupt, its loader, the exit code of main() when the loader rejects it).
    BYTE_INPUTS = {
        "volume": ("data/V000.wspv", lambda root: load_dataset(root / "data"), 3),
        "manifest": ("data/manifest.json", lambda root: load_dataset(root / "data"), 3),
        "checkpoint": ("enc.ckpt", lambda root: load_checkpoint(root / "enc.ckpt"), 3),
        "run-config": ("run.json", lambda root: load_run_config(root / "run.json"), 2),
    }

    @pytest.mark.parametrize("kind", BYTE_INPUTS)
    @settings(max_examples=60, deadline=None)
    @given(truncate=st.booleans(), position=st.integers(0, 2**16), value=st.integers(0, 255))
    @example(truncate=False, position=0, value=0xFF)  # not UTF-8 at the start of a JSON input
    def test_corrupt_input_bytes_raise_wsp_error_and_exit_code(self, valid_inputs, kind, truncate, position, value):
        name, loader, expected = self.BYTE_INPUTS[kind]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            shutil.copytree(valid_inputs, root, dirs_exist_ok=True)
            raw = (root / name).read_bytes()
            at = position % len(raw)
            (root / name).write_bytes(raw[:at] if truncate else raw[:at] + bytes([value]) + raw[at + 1 :])
            try:
                loader(root)
            except WspError:
                pass  # any other exception fails the test
            else:
                return
            ckpt = str(root / "enc.ckpt") if kind == "checkpoint" else "random"
            config = ["--config", str(root / "run.json")] if kind == "run-config" else []
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main(["project", "--data", str(root / "data"), "--ckpt", ckpt, "--arch", "mlp", *config,
                             "--out", str(root / "pca.csv")])
            assert code == expected
            assert "Traceback" not in stderr.getvalue()


@pytest.mark.parametrize(
    "command, doc",
    [
        ("generate", {"data": {"contour_amplitudes": [0.1, 0.1, 0.1, float("nan")]}}),
        ("pretrain", {"encoder": {"mlp_hidden": [16, 10**400, "x"]}}),
        ("pretrain", {"loss": {"sigma": 10**400}}),
        ("pretrain", {"optim": {"momentum": float("-inf")}}),
        ("pretrain", {"augment": {"crop_scale": [0.5, float("nan")]}}),
        ("probe", {"probe": {"l2_strength": float("nan")}}),
    ],
    ids=["GeneratorConfig", "EncoderConfig", "LossConfig", "OptimConfig", "AugmentConfig", "ProbeConfig"],
)
def test_hostile_config_value_exits_2_without_traceback(tmp_path, capsys, command, doc):
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data), "--volumes", "4", "--slices", "4"]) == 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    flags = {
        "generate": [],
        "pretrain": ["--data", str(data), "--epochs", "1", "--batch", "4"],
        "probe": ["--data", str(data), "--ckpt", "random", "--folds", "2"],
    }[command]
    capsys.readouterr()
    code = main([command, *flags, "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "usage error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("raw", [b'{"seed": "\xff"}', b"[" * 100000 + b"]" * 100000],
                         ids=["invalid-utf8", "deeply-nested"])
def test_undecodable_run_config_exits_2_without_traceback(tmp_path, capsys, raw):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(raw)
    code = main(["probe", "--data", str(tmp_path), "--ckpt", "random", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "usage error:" in err
    assert "Traceback" not in err
