"""Primitive analog devices used to describe the structure of A/M-S blocks.

The SymBIST defect model (paper Section V) enumerates defects *per device
terminal pair*: shorts and opens across transistor and diode terminals and
+/-50 % deviations of passive components.  To make that enumeration possible
every analog block in :mod:`repro.adc` describes its structure as a
:class:`~repro.circuit.netlist.Netlist` of the primitive devices defined here.

A device is a small record: a name, a :class:`DeviceKind`, an ordered tuple of
terminals (each bound to a net name), electrical parameters, and a mutable
:class:`DefectState` describing the currently injected defect, if any.  Blocks
read the *effective* electrical values (:meth:`Device.effective_value`,
:meth:`Device.is_shorted`, ...) when they evaluate themselves, so an injected
defect automatically propagates into the block behaviour.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Dict, Optional, Set, Tuple

from .errors import ComponentError
from .units import OPEN_RESISTANCE, SHORT_RESISTANCE


class DeviceKind(str, Enum):
    """Primitive device families recognised by the defect model."""

    RESISTOR = "resistor"
    CAPACITOR = "capacitor"
    SWITCH = "switch"
    NMOS = "nmos"
    PMOS = "pmos"
    DIODE = "diode"
    NPN = "npn"
    PNP = "pnp"

    @property
    def is_passive(self) -> bool:
        """True for devices subject to the +/-50 % value-deviation defects."""
        return self in (DeviceKind.RESISTOR, DeviceKind.CAPACITOR)

    @property
    def is_transistor(self) -> bool:
        return self in (DeviceKind.NMOS, DeviceKind.PMOS, DeviceKind.NPN,
                        DeviceKind.PNP, DeviceKind.SWITCH)


#: Ordered terminal names per device kind.  The order matters because nets are
#: bound positionally when a device is added to a netlist.
TERMINALS: Dict[DeviceKind, Tuple[str, ...]] = {
    DeviceKind.RESISTOR: ("p", "n"),
    DeviceKind.CAPACITOR: ("p", "n"),
    DeviceKind.SWITCH: ("p", "n", "ctrl"),
    DeviceKind.NMOS: ("d", "g", "s", "b"),
    DeviceKind.PMOS: ("d", "g", "s", "b"),
    DeviceKind.DIODE: ("a", "c"),
    DeviceKind.NPN: ("c", "b", "e"),
    DeviceKind.PNP: ("c", "b", "e"),
}


#: Tracking attributes of :class:`DefectState`, kept out of its pickled state.
_WATCH_KEYS = frozenset({"_watcher", "_index"})


class PullDirection(str, Enum):
    """Weak pull assigned to an open defect (paper Section V)."""

    UP = "up"
    DOWN = "down"


@dataclass(init=False)
class DefectState:
    """Mutable record of the defect currently injected into a device.

    A defect-free device has the default state (no short, no open,
    ``value_scale == 1.0``).  Exactly one physical defect is injected at a time
    during a campaign (single-defect assumption, standard in defect-oriented
    test), but the representation does not enforce that -- the injection engine
    does.
    """

    shorted_terminals: Optional[Tuple[str, str]] = None
    short_resistance: float = SHORT_RESISTANCE
    open_terminal: Optional[str] = None
    open_pull: Optional[PullDirection] = None
    open_resistance: float = OPEN_RESISTANCE
    value_scale: float = 1.0

    def __init__(self, shorted_terminals: Optional[Tuple[str, str]] = None,
                 short_resistance: float = SHORT_RESISTANCE,
                 open_terminal: Optional[str] = None,
                 open_pull: Optional[PullDirection] = None,
                 open_resistance: float = OPEN_RESISTANCE,
                 value_scale: float = 1.0) -> None:
        # Straight into ``__dict__``, in field order (the pickled bytes
        # follow it), bypassing the tracking ``__setattr__``: a new state
        # has no watcher, and ``clear`` reports its one transition itself.
        self.__dict__.update(shorted_terminals=shorted_terminals,
                             short_resistance=short_resistance,
                             open_terminal=open_terminal, open_pull=open_pull,
                             open_resistance=open_resistance,
                             value_scale=value_scale)

    @property
    def is_clean(self) -> bool:
        """True when no defect is currently injected."""
        return (self.shorted_terminals is None
                and self.open_terminal is None
                and self.value_scale == 1.0)

    # ----------------------------------------------------------- tracking
    # A netlist that owns the state *watches* it: ``_watcher`` is the
    # netlist's set of defective-device indices and ``_index`` the device's
    # insertion index.  Every write that flips :attr:`is_clean` -- through
    # the injector, ``clear``, process variation or a direct field
    # assignment -- updates that set, so the netlist never has to scan its
    # devices.  The set holds plain ints, so watching creates no reference
    # cycle, and neither attribute is part of the pickled state.
    _watcher: ClassVar[Optional[Set[int]]] = None
    _index: ClassVar[int] = -1

    def __setattr__(self, name: str, value: object) -> None:
        watcher = self._watcher
        if watcher is None:
            object.__setattr__(self, name, value)
            return
        was_clean = self.is_clean
        object.__setattr__(self, name, value)
        if self.is_clean != was_clean:
            if was_clean:
                watcher.add(self._index)
            else:
                watcher.discard(self._index)

    @property
    def watcher(self) -> Optional[Set[int]]:
        """The set this state reports its transitions into, if any."""
        return self._watcher

    def watch(self, watcher: Set[int], index: int) -> None:
        """Report this state's clean/defective transitions into ``watcher``
        under ``index``, starting with its current state."""
        self.__dict__["_watcher"] = watcher
        self.__dict__["_index"] = index
        if not self.is_clean:
            watcher.add(index)

    def __getstate__(self) -> Dict[str, object]:
        return {key: value for key, value in self.__dict__.items()
                if key not in _WATCH_KEYS}

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Interned keys, as pickle's default restore leaves them, so a
        # round-tripped state pickles (and fingerprints) like one restored
        # without this method.
        for key, value in state.items():
            self.__dict__[sys.intern(key)] = value

    def clear(self) -> None:
        """Reset the device to its defect-free state."""
        was_clean = self.is_clean
        DefectState.__init__(self)
        if not was_clean and self._watcher is not None:
            self._watcher.discard(self._index)


@dataclass
class Device:
    """A primitive device instance bound to nets inside a block netlist.

    Parameters
    ----------
    name:
        Instance name, unique within its :class:`~repro.circuit.netlist.Netlist`.
    kind:
        The :class:`DeviceKind` of the device.
    nets:
        Mapping from terminal name (see :data:`TERMINALS`) to net name.
    params:
        Electrical parameters.  Passives use ``value`` (ohms or farads);
        transistors typically carry ``w``/``l`` (metres) used as a layout-area
        proxy by the likelihood model; switches carry ``ron``.
    """

    name: str
    kind: DeviceKind
    nets: Dict[str, str]
    params: Dict[str, float] = field(default_factory=dict)
    defect: DefectState = field(default_factory=DefectState)

    def __post_init__(self) -> None:
        expected = TERMINALS[self.kind]
        missing = [t for t in expected if t not in self.nets]
        extra = [t for t in self.nets if t not in expected]
        if missing or extra:
            raise ComponentError(
                f"device {self.name!r} ({self.kind.value}): terminal mismatch, "
                f"missing={missing}, unexpected={extra}")
        if self.kind.is_passive and self.value <= 0.0:
            raise ComponentError(
                f"device {self.name!r}: passive value must be positive, "
                f"got {self.params.get('value')!r}")

    # ------------------------------------------------------------------ value
    @property
    def value(self) -> float:
        """Nominal value of a passive device (ohms / farads)."""
        return float(self.params.get("value", 0.0))

    def effective_value(self) -> float:
        """Passive value including the injected +/-X % deviation defect.

        Shorts and opens are *not* folded in here -- network builders query
        :meth:`is_shorted` / :meth:`is_open` separately because a short across
        a capacitor becomes a resistor, not a huge capacitance.
        """
        return self.value * self.defect.value_scale

    # --------------------------------------------------------------- topology
    def net_of(self, terminal: str) -> str:
        """Return the net bound to ``terminal``."""
        try:
            return self.nets[terminal]
        except KeyError as exc:
            raise ComponentError(
                f"device {self.name!r} has no terminal {terminal!r}") from exc

    @property
    def terminals(self) -> Tuple[str, ...]:
        return TERMINALS[self.kind]

    # ----------------------------------------------------------- defect state
    def is_shorted(self, term_a: str, term_b: str) -> bool:
        """True if the injected defect shorts terminals ``term_a``/``term_b``."""
        pair = self.defect.shorted_terminals
        if pair is None:
            return False
        return set(pair) == {term_a, term_b}

    def is_open(self, terminal: str) -> bool:
        """True if the injected defect opens the given terminal."""
        return self.defect.open_terminal == terminal

    @property
    def has_defect(self) -> bool:
        return not self.defect.is_clean

    def clear_defect(self) -> None:
        self.defect.clear()

    # --------------------------------------------------------------- metadata
    def area_proxy(self) -> float:
        """Relative layout-area proxy used by the defect-likelihood model.

        Transistors use ``w*l`` when available; passives use their value scaled
        into a comparable range; anything unknown defaults to ``1.0``.  The
        absolute scale is irrelevant -- only relative weights matter for
        likelihood-weighted coverage.
        """
        w = self.params.get("w")
        length = self.params.get("l")
        if w is not None and length is not None and w > 0 and length > 0:
            return float(w * length) / 1e-14  # normalise to ~unity for 65 nm
        if self.kind is DeviceKind.RESISTOR:
            return max(self.value / 1e4, 0.1)
        if self.kind is DeviceKind.CAPACITOR:
            return max(self.value / 1e-13, 0.1)
        if self.kind in (DeviceKind.DIODE, DeviceKind.NPN, DeviceKind.PNP):
            # Bipolars/diodes are physically large junction devices; scale by
            # their emitter-area multiplier.
            return 8.0 * float(self.params.get("area", 1.0))
        return 1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tail = " [DEFECT]" if self.has_defect else ""
        return f"Device({self.name}, {self.kind.value}, nets={self.nets}){tail}"


# --------------------------------------------------------------------------- #
# Convenience constructors
# --------------------------------------------------------------------------- #
def resistor(name: str, p: str, n: str, value: float) -> Device:
    """Create a resistor of ``value`` ohms between nets ``p`` and ``n``."""
    return Device(name, DeviceKind.RESISTOR, {"p": p, "n": n}, {"value": value})


def capacitor(name: str, p: str, n: str, value: float) -> Device:
    """Create a capacitor of ``value`` farads between nets ``p`` and ``n``."""
    return Device(name, DeviceKind.CAPACITOR, {"p": p, "n": n}, {"value": value})


def switch(name: str, p: str, n: str, ctrl: str, ron: float = 100.0,
           w: float = 2e-6, l: float = 65e-9) -> Device:
    """Create a MOS switch with on-resistance ``ron`` controlled by net ``ctrl``.

    ``w``/``l`` are the layout-area proxy of the pass device (switches sized
    for low on-resistance are physically large and therefore carry a higher
    defect likelihood).
    """
    if ron <= 0.0:
        raise ComponentError(f"switch {name!r}: ron must be positive, got {ron}")
    return Device(name, DeviceKind.SWITCH, {"p": p, "n": n, "ctrl": ctrl},
                  {"ron": ron, "w": w, "l": l})


def nmos(name: str, d: str, g: str, s: str, b: str = "vss",
         w: float = 1e-6, l: float = 65e-9) -> Device:
    """Create an NMOS transistor (behavioral; ``w``/``l`` are area proxies)."""
    return Device(name, DeviceKind.NMOS, {"d": d, "g": g, "s": s, "b": b},
                  {"w": w, "l": l})


def pmos(name: str, d: str, g: str, s: str, b: str = "vdd",
         w: float = 2e-6, l: float = 65e-9) -> Device:
    """Create a PMOS transistor (behavioral; ``w``/``l`` are area proxies)."""
    return Device(name, DeviceKind.PMOS, {"d": d, "g": g, "s": s, "b": b},
                  {"w": w, "l": l})


def diode(name: str, a: str, c: str, area: float = 1.0) -> Device:
    """Create a junction diode between anode ``a`` and cathode ``c``."""
    return Device(name, DeviceKind.DIODE, {"a": a, "c": c}, {"area": area})


def npn(name: str, c: str, b: str, e: str, area: float = 1.0) -> Device:
    """Create an NPN bipolar transistor (used in the bandgap core)."""
    return Device(name, DeviceKind.NPN, {"c": c, "b": b, "e": e}, {"area": area})


def pnp(name: str, c: str, b: str, e: str, area: float = 1.0) -> Device:
    """Create a PNP bipolar transistor (used in the bandgap core)."""
    return Device(name, DeviceKind.PNP, {"c": c, "b": b, "e": e}, {"area": area})
