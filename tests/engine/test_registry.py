"""Tests for the stage-registry mechanism (independent of any stage kind)."""

import pytest

from repro.circuit import EngineError
from repro.engine import (IDENTITY_CODEC, ResultCodec, StageDefinition,
                          StageParam, available_stages, register_stage,
                          stage_definition)
from repro.engine import registry
from repro.engine.registry import coerce_param


def _noop_expand(build, name, params):
    pass


@pytest.fixture
def empty_registry(monkeypatch):
    """A private registry, so these tests neither see nor leak stages."""
    monkeypatch.setattr(registry, "_REGISTRY", {})


class TestRegistry:
    def test_unknown_stage_definition_is_actionable(self, empty_registry):
        register_stage(StageDefinition(name="produce", doc="",
                                       expand=_noop_expand))
        with pytest.raises(EngineError, match="registered stages: produce"):
            stage_definition("nope")

    def test_coerce_param_kinds(self):
        str_list = StageParam("blocks", "str_list")
        assert coerce_param(str_list, "a,b", "here") == ("a", "b")
        float_list = StageParam("k_values", "float_list")
        assert coerce_param(float_list, [2, 3.5], "here") == (2.0, 3.5)
        assert coerce_param(float_list, "2,3.5", "here") == (2.0, 3.5)
        float_map = StageParam("block_k", "float_map")
        assert coerce_param(float_map, {"a": 2}, "here") == {"a": 2.0}
        assert coerce_param(StageParam("s", "str"), "x", "here") == "x"
        with pytest.raises(EngineError, match="boolean"):
            coerce_param(StageParam("flag", "bool"), 1, "here")
        with pytest.raises(EngineError, match="a string"):
            coerce_param(StageParam("s", "str"), 3, "here")
        with pytest.raises(EngineError, match="list of numbers"):
            coerce_param(float_list, "2,wide", "here")
        with pytest.raises(EngineError, match="list of strings"):
            coerce_param(str_list, [1, 2], "here")
        with pytest.raises(EngineError, match="name -> number"):
            coerce_param(float_map, {"a": "x"}, "here")
        with pytest.raises(EngineError, match="non-null"):
            coerce_param(StageParam("n", "int"), None, "here")
        with pytest.raises(EngineError, match="unknown kind"):
            StageParam("x", "complex")

    def test_register_rejects_duplicate_names(self, empty_registry):
        definition = StageDefinition(name="produce", doc="",
                                     expand=_noop_expand)
        assert register_stage(definition) is definition
        assert available_stages() == [definition]
        assert stage_definition("produce") is definition
        with pytest.raises(EngineError, match="already registered"):
            register_stage(definition)

    def test_resolve_params_precedence_and_unknown_names(self):
        definition = StageDefinition(
            name="produce", doc="", expand=_noop_expand,
            params=(StageParam("n", "int", default=3),
                    StageParam("k", "float", default=5.0),
                    StageParam("tag", "str", default=None, nullable=True)))
        resolved = definition.resolve_params({"k": 4, "n": 9}, {"n": 7},
                                             "here")
        # stage params beat study-wide ones, which beat the defaults
        assert resolved == {"n": 7, "k": 4.0, "tag": None}
        with pytest.raises(EngineError, match="known parameters: k, n, tag"):
            definition.resolve_params({}, {"m": 1}, "here")

    def test_codec_defaults_to_identity(self):
        plain = StageDefinition(name="plain", doc="", expand=_noop_expand)
        assert plain.make_codec() is IDENTITY_CODEC
        codec = ResultCodec(encode=list, decode=tuple)
        coded = StageDefinition(name="coded", doc="", expand=_noop_expand,
                                codec=lambda: codec)
        assert coded.make_codec() is codec
