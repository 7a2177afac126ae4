"""Property-based tests of tracked defect state.

A netlist does not scan its devices to answer ``has_defect``: every
:class:`~repro.circuit.components.DefectState` reports its own
clean/defective transitions into the owning netlist.  These properties run
random sequences of every way the code base writes defect state -- direct
field assignments, the defect injector, ``clear_defects``,
process variation and pickle round trips -- and check after every step that
the tracked answers equal a brute-force device scan.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adc import SarAdc
from repro.circuit.components import PullDirection, resistor
from repro.circuit.errors import DefectError, NetlistError
from repro.circuit.netlist import Netlist
from repro.circuit.variation import reset_variation, vary_netlist
from repro.defects import DefectInjector, build_defect_universe

#: Values a direct write may assign, per DefectState field.  ``None`` /
#: ``1.0`` restore the clean value; the others make the device defective
#: (or, for the resistance/pull fields, leave cleanliness unchanged).
FIELD_VALUES = {
    "shorted_terminals": [None, ("d", "s"), ("p", "n")],
    "open_terminal": [None, "g", "p"],
    "value_scale": [1.0, 0.5, 1.5, 0.98],
    "open_pull": [None, PullDirection.UP],
    "short_resistance": [1.0, 10.0],
}
FIELDS = sorted(FIELD_VALUES)

OPERATIONS = ("write", "inject", "remove", "clear_block",
              "clear_all", "vary", "reset", "pickle")

STEPS = st.lists(st.tuples(st.sampled_from(OPERATIONS),
                           st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
                 max_size=30)


def brute_force(netlist: Netlist):
    return [device for device in netlist if not device.defect.is_clean]


def assert_tracked_equals_scan(adc: SarAdc) -> None:
    for block in adc.analog_blocks:
        netlist = block.netlist
        scanned = brute_force(netlist)
        tracked = netlist.defective_devices()
        assert [id(d) for d in tracked] == [id(d) for d in scanned]
        assert netlist.has_defect == bool(scanned)
        assert block.has_defect == bool(scanned)
    assert adc.has_defect == any(brute_force(block.netlist)
                                 for block in adc.analog_blocks)


class _Harness:
    """One ADC plus the injector and universe the campaign would build."""

    def __init__(self, adc: SarAdc) -> None:
        self.adc = adc
        self.hierarchy = adc.build_hierarchy()
        self.injector = DefectInjector(self.hierarchy)
        self.universe = build_defect_universe(self.hierarchy)

    def device(self, a: int, b: int):
        block = self.adc.analog_blocks[a % len(self.adc.analog_blocks)]
        devices = block.netlist.devices
        return block, devices[b % len(devices)]

    def apply(self, operation: str, a: int, b: int) -> "_Harness":
        block, device = self.device(a, b)
        if operation == "write":
            name = FIELDS[a % len(FIELDS)]
            values = FIELD_VALUES[name]
            setattr(device.defect, name, values[b % len(values)])
        elif operation == "inject":
            defect = self.universe.defects[b % len(self.universe)]
            try:
                self.injector.inject(defect)
            except DefectError:
                pass  # one active defect, or a device already defective
        elif operation == "remove":
            self.injector.remove()
        elif operation == "clear_block":
            block.clear_defects()
        elif operation == "clear_all":
            self.adc.clear_defects()
        elif operation == "vary":
            vary_netlist(block.netlist, np.random.default_rng(b))
        elif operation == "reset":
            reset_variation(block.netlist)
        elif operation == "pickle":
            return _Harness(pickle.loads(pickle.dumps(self.adc)))
        return self


@given(steps=STEPS)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_tracked_state_equals_device_scan_after_every_step(steps):
    harness = _Harness(SarAdc())
    assert_tracked_equals_scan(harness.adc)
    for operation, a, b in steps:
        harness = harness.apply(operation, a, b)
        assert_tracked_equals_scan(harness.adc)


@given(steps=STEPS)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_tracking_never_reaches_the_pickled_state(steps):
    """Pickled bytes -- the material of ``adc_fingerprint`` -- hold device
    state only: a netlist freshly built from copies of the same devices
    pickles to the same bytes whatever transitions its tracker went
    through."""
    harness = _Harness(SarAdc())
    for operation, a, b in steps:
        harness = harness.apply(operation, a, b)
    for block in harness.adc.analog_blocks:
        fresh = Netlist(block.netlist.name)
        for device in copy.deepcopy(block.netlist.devices):
            fresh.add(device)
        assert pickle.dumps(fresh, protocol=4) == \
            pickle.dumps(block.netlist, protocol=4)
    assert_tracked_equals_scan(harness.adc)


def test_adding_a_defective_device_tracks_it_in_insertion_order():
    netlist = Netlist("n")
    netlist.add_resistor("r0", "a", "b", 1e3)
    late = resistor("r1", "a", "b", 1e3)
    late.defect.open_terminal = "p"
    netlist.add_resistor("r2", "a", "b", 1e3).defect.value_scale = 1.5
    netlist.add(late)
    assert [d.name for d in netlist.defective_devices()] == ["r2", "r1"]
    netlist.device("r2").defect.value_scale = 1.0
    assert [d.name for d in netlist.defective_devices()] == ["r1"]


def test_a_device_belongs_to_one_netlist():
    netlist = Netlist("n")
    device = netlist.add_resistor("r0", "a", "b", 1e3)
    with pytest.raises(NetlistError):
        Netlist("m").add(device)
