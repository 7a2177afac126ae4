"""Stage registry: named, typed, composable stage kinds.

A *stage kind* is registered under a stable name with a **typed parameter
schema** (:class:`StageParam`), an *expander* that knows how to add the
stage's tasks (and their dependency edges) to a study's
:class:`~repro.engine.pipeline.Pipeline`, and an optional result-codec
factory.  A study compiler walks a declarative document stage by stage,
resolves each entry against this registry (:func:`stage_definition`),
validates and coerces its parameters (:meth:`StageDefinition.resolve_params`)
and calls the expander -- so a study is *data* rather than a bespoke builder
function, and a new workload shape is a new document, not new scaffolding
code.

This module is the mechanism only; it registers no stage itself.  The
SymBIST stage kinds (``calibrate``, ``windows``, ``campaign``, ``yield``,
``escape``, ``block-summary``) and the study compiler live in
:mod:`repro.studies`, which registers them on import.  Third-party stages
can call :func:`register_stage` with their own :class:`StageDefinition`;
the ``repro-campaign run`` subcommand picks them up as soon as the defining
module is imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..circuit.errors import EngineError
from .executor import IDENTITY_CODEC, ResultCodec

# --------------------------------------------------------------------- params

#: Parameter kinds understood by the schema (see :func:`coerce_param`).
PARAM_KINDS = ("int", "float", "bool", "str", "str_list", "float_list",
               "float_map")


@dataclass(frozen=True)
class StageParam:
    """One typed parameter of a registered stage.

    ``kind`` names a JSON/TOML-compatible type from :data:`PARAM_KINDS`;
    ``nullable`` parameters additionally accept ``None`` (JSON ``null``).
    ``default`` is applied when a study names the stage without the
    parameter.
    """

    name: str
    kind: str
    default: Any = None
    nullable: bool = False
    doc: str = ""

    def __post_init__(self) -> None:
        if self.kind not in PARAM_KINDS:
            raise EngineError(
                f"parameter {self.name!r} has unknown kind {self.kind!r}; "
                f"expected one of {', '.join(PARAM_KINDS)}")


def coerce_param(param: StageParam, value: Any, where: str) -> Any:
    """Coerce ``value`` to the parameter's kind, with an actionable error.

    Normalises across the serialisation formats (TOML integers for float
    parameters, JSON lists for tuple-valued parameters) so a spec
    round-trips to an identical :class:`~repro.studies.StudySpec`
    whatever format it travelled through.  Lists normalise to tuples and
    maps to plain dicts.
    """
    def fail(expected: str) -> "EngineError":
        return EngineError(
            f"{where}: parameter {param.name!r} expects {expected}, "
            f"got {value!r} ({type(value).__name__})")

    if value is None:
        if param.nullable:
            return None
        raise fail(f"a non-null {param.kind}")
    if param.kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise fail("an integer")
        return int(value)
    if param.kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise fail("a number")
        return float(value)
    if param.kind == "bool":
        if not isinstance(value, bool):
            raise fail("a boolean")
        return bool(value)
    if param.kind == "str":
        if not isinstance(value, str):
            raise fail("a string")
        return str(value)
    if param.kind == "str_list":
        if isinstance(value, str):
            # CLI convenience: --set campaign.blocks=sc_array,subdac1
            value = [entry for entry in value.split(",") if entry]
        if not isinstance(value, (list, tuple)) or \
                not all(isinstance(entry, str) for entry in value):
            raise fail("a list of strings")
        return tuple(value)
    if param.kind == "float_list":
        if isinstance(value, str):
            try:
                value = [float(entry) for entry in value.split(",") if entry]
            except ValueError:
                raise fail("a list of numbers") from None
        if not isinstance(value, (list, tuple)) or not all(
                isinstance(entry, (int, float))
                and not isinstance(entry, bool) for entry in value):
            raise fail("a list of numbers")
        return tuple(float(entry) for entry in value)
    if param.kind == "float_map":
        if not isinstance(value, Mapping) or not all(
                isinstance(key, str) and isinstance(entry, (int, float))
                and not isinstance(entry, bool)
                for key, entry in value.items()):
            raise fail("a table of name -> number entries")
        return {key: float(entry) for key, entry in value.items()}
    raise fail(param.kind)  # pragma: no cover (kinds checked at definition)


# --------------------------------------------------------------- definitions

#: Expander contract: ``expand(build, name, params)`` adds the stage (and
#: its tasks, with dependency edges onto previously expanded stages) to
#: ``build.pipeline``.  ``build`` is the mutable compilation state the
#: study compiler threads through (:class:`repro.studies.StudyBuild`).
StageExpander = Callable[[Any, str, Dict[str, Any]], None]


@dataclass(frozen=True)
class StageDefinition:
    """One registered stage kind: name, parameter schema, expander, codec."""

    name: str
    doc: str
    expand: StageExpander
    params: Tuple[StageParam, ...] = ()
    #: Stage kinds that must appear earlier in the study for this stage to
    #: compile (checked by the expanders with actionable messages).
    requires: Tuple[str, ...] = ()
    #: Lazy factory of the stage kind's result codec -- how this kind's
    #: results serialize into the artifact store (including whether they are
    #: array-heavy enough for ``.npy`` sidecars).  Lazy so registering a
    #: stage does not import its workload modules; ``None`` means the
    #: results are natively JSON (identity codec).
    codec: Optional[Callable[[], ResultCodec]] = None

    def make_codec(self) -> ResultCodec:
        """The stage kind's declared result codec (identity by default)."""
        return self.codec() if self.codec is not None else IDENTITY_CODEC

    def param(self, name: str) -> StageParam:
        for param in self.params:
            if param.name == name:
                return param
        known = ", ".join(sorted(p.name for p in self.params)) or "<none>"
        raise EngineError(
            f"stage {self.name!r} has no parameter {name!r}; "
            f"known parameters: {known}")

    def resolve_params(self, study_params: Mapping[str, Any],
                       stage_params: Mapping[str, Any],
                       where: str) -> Dict[str, Any]:
        """Defaults <- study-wide params <- per-stage params, coerced."""
        for name in stage_params:
            self.param(name)  # unknown-parameter rejection
        resolved: Dict[str, Any] = {}
        for param in self.params:
            if param.name in stage_params:
                value = stage_params[param.name]
            elif param.name in study_params:
                value = study_params[param.name]
            else:
                resolved[param.name] = param.default
                continue
            resolved[param.name] = coerce_param(param, value, where)
        return resolved


_REGISTRY: Dict[str, StageDefinition] = {}


def register_stage(definition: StageDefinition) -> StageDefinition:
    """Register a stage kind; rejects duplicate names."""
    if definition.name in _REGISTRY:
        raise EngineError(
            f"a stage named {definition.name!r} is already registered")
    _REGISTRY[definition.name] = definition
    return definition


def stage_definition(name: str) -> StageDefinition:
    """Look a stage kind up, with the available names in the error."""
    try:
        return _REGISTRY[name]
    except KeyError:
        available = ", ".join(sorted(_REGISTRY))
        raise EngineError(
            f"unknown stage {name!r}; registered stages: {available}") \
            from None


def available_stages() -> List[StageDefinition]:
    """Registered stage definitions, in registration order."""
    return list(_REGISTRY.values())
