"""The per-field type-and-range rules of the config dataclasses, at every boundary that builds one."""

import dataclasses
import json
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsp.cli import main
from wsp.data import GeneratorConfig
from wsp.encoders import EncoderCheckpoint, EncoderConfig, init_encoder, load_checkpoint, save_checkpoint
from wsp.errors import ConfigError, ContractError, FormatError, build_config, check_fields
from wsp.evaluation import ProbeConfig
from wsp.losses import LossConfig
from wsp.sampling import AugmentConfig, BatchSpec
from wsp.training import OptimConfig

from oracles import rewrite_checkpoint_header

CONFIG_CLASSES = [GeneratorConfig, EncoderConfig, LossConfig, OptimConfig, ProbeConfig, AugmentConfig, BatchSpec]
SCALARS = (int, float, bool, str)
FIELDS = [(cls, field.name) for cls in CONFIG_CLASSES for field in dataclasses.fields(cls)]
HOSTILE = [float("nan"), float("inf"), float("-inf"), 10**400, -1, True, "x", None, [], {}]


def hostile_values(cls, name):
    """JSON-shaped hostile values for one field: the shared list, plus bad lists for a tuple field."""
    default = getattr(cls(), name)
    if not isinstance(default, tuple):
        return HOSTILE
    return [*HOSTILE, [*default, default[0]], list(default[:-1]), [float("nan"), *default[1:]]]


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
            size: int = 1
            widths: tuple[float, ...] = (1.0,)

            def __post_init__(self):
                check_fields(self, size="[1, inf)")

        with pytest.raises(ContractError, match="widths"):
            Unruled()

    def test_rule_for_unknown_field_fails(self):
        @dataclasses.dataclass(frozen=True)
        class Misspelt:
            size: int = 1

            def __post_init__(self):
                check_fields(self, size="[1, inf)", sise="[1, inf)")

        with pytest.raises(ContractError, match="sise"):
            Misspelt()

    @pytest.mark.parametrize(
        "rule, inside, outside",
        [("[0, 1)", [0, 0.5], [1, -0.1]), ("(0, inf)", [1e-300, 10**300], [0]), ("[2, 2]", [2], [1, 3])],
    )
    def test_interval_bounds(self, rule, inside, outside):
        @dataclasses.dataclass(frozen=True)
        class One:
            x: float = 2.0

            def __post_init__(self):
                check_fields(self, x=rule)

        for value in inside:
            One(value)
        for value in outside:
            with pytest.raises(ConfigError, match=r"x must lie in"):
                One(value)

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
