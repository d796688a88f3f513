"""Tests for native-gate decomposition."""

import math

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gate import NATIVE_GATE_NAMES, Gate
from repro.circuits.random import random_circuit
from repro.circuits.unitary import allclose_up_to_global_phase, circuit_unitary
from repro.compiler import decompose
from repro.compiler.decompose import (
    clear_native_memo,
    decompose_to_cx,
    decompose_to_native,
    lower_to_native,
    merge_adjacent_rotations,
)


def assert_equivalent(original: Circuit, rewritten: Circuit) -> None:
    assert allclose_up_to_global_phase(
        circuit_unitary(original), circuit_unitary(rewritten)
    ), f"decomposition of {original.name} is not equivalent"


class TestToCx:
    @pytest.mark.parametrize("name,width,params", [
        ("cz", 2, ()),
        ("swap", 2, ()),
        ("cp", 2, (0.7,)),
        ("rzz", 2, (1.1,)),
        ("rxx", 2, (0.4,)),
        ("xx", 2, (0.3,)),
        ("ccx", 3, ()),
    ])
    def test_each_multiqubit_gate(self, name, width, params):
        circuit = Circuit(width)
        circuit.append(Gate(name, tuple(range(width)), params))
        rewritten = decompose_to_cx(circuit)
        assert all(g.name == "cx" or g.num_qubits == 1 for g in rewritten)
        assert_equivalent(circuit, rewritten)

    def test_keep_xx_flag(self):
        circuit = Circuit(2).xx(0.4, 0, 1)
        assert decompose_to_cx(circuit, keep_xx=True).count_ops() == {"xx": 1}

    def test_measure_and_barrier_pass_through(self):
        circuit = Circuit(2).barrier().measure(0)
        rewritten = decompose_to_cx(circuit)
        assert [g.name for g in rewritten] == ["barrier", "measure"]

    def test_random_circuits_equivalent(self):
        for seed in range(4):
            circuit = random_circuit(4, 20, seed=seed)
            assert_equivalent(circuit, decompose_to_cx(circuit))


class TestToNative:
    def test_only_native_names_remain(self):
        circuit = random_circuit(4, 30, seed=3)
        native = decompose_to_native(circuit)
        assert {g.name for g in native} <= NATIVE_GATE_NAMES

    def test_cnot_construction_matches_paper_structure(self):
        native = decompose_to_native(Circuit(2).cx(0, 1))
        names = [g.name for g in native]
        assert names == ["ry", "xx", "rx", "rx", "ry"]
        assert native[1].params[0] == pytest.approx(math.pi / 4)

    @pytest.mark.parametrize("builder", [
        lambda c: c.h(0),
        lambda c: c.x(0),
        lambda c: c.y(0),
        lambda c: c.z(0),
        lambda c: c.s(0),
        lambda c: c.sdg(0),
        lambda c: c.t(0),
        lambda c: c.tdg(0),
        lambda c: c.sx(0),
        lambda c: c.p(0.3, 0),
        lambda c: c.u3(0.3, 0.4, 0.5, 0),
        lambda c: c.cx(0, 1),
        lambda c: c.cz(0, 1),
        lambda c: c.swap(0, 1),
        lambda c: c.cp(0.9, 0, 1),
        lambda c: c.ccx(0, 1, 2),
    ])
    def test_each_gate_equivalent(self, builder):
        circuit = Circuit(3)
        builder(circuit)
        assert_equivalent(circuit, decompose_to_native(circuit))

    def test_random_circuits_equivalent(self):
        for seed in range(4):
            circuit = random_circuit(4, 25, seed=10 + seed)
            assert_equivalent(circuit, decompose_to_native(circuit))

    def test_identity_gates_dropped(self):
        native = decompose_to_native(Circuit(1).id(0))
        assert len(native) == 0


class TestRotationMerging:
    def test_adjacent_same_axis_rotations_fuse(self):
        circuit = Circuit(1).rz(0.2, 0).rz(0.3, 0)
        merged = merge_adjacent_rotations(circuit)
        assert len(merged) == 1
        assert merged[0].params[0] == pytest.approx(0.5)

    def test_full_turn_is_dropped(self):
        circuit = Circuit(1).rz(math.pi, 0).rz(math.pi, 0)
        assert len(merge_adjacent_rotations(circuit)) == 0

    def test_different_axes_not_fused(self):
        circuit = Circuit(1).rz(0.2, 0).rx(0.3, 0)
        assert len(merge_adjacent_rotations(circuit)) == 2

    def test_intervening_two_qubit_gate_blocks_fusion(self):
        circuit = Circuit(2).rz(0.2, 0).xx(0.1, 0, 1).rz(0.3, 0)
        merged = merge_adjacent_rotations(circuit)
        assert sum(1 for g in merged if g.name == "rz") == 2

    def test_equivalence_on_random_native_circuits(self):
        from repro.circuits.random import random_native_circuit

        for seed in range(3):
            circuit = random_native_circuit(3, 30, seed=seed)
            assert_equivalent(circuit, merge_adjacent_rotations(circuit))

    def test_merging_after_decomposition_reduces_size(self):
        circuit = Circuit(2)
        for _ in range(4):
            circuit.cx(0, 1)
        native = decompose_to_native(circuit)
        merged = merge_adjacent_rotations(native)
        assert len(merged) < len(native)
        assert_equivalent(native, merged)


class TestLowerToNative:
    """The one native-lowering entry point and its one-entry memo."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count the decompositions the memo lets through."""
        clear_native_memo()
        seen = []

        def counting(circuit):
            seen.append(circuit)
            return decompose_to_native(circuit)

        monkeypatch.setattr(decompose, "decompose_to_native", counting)
        yield seen
        clear_native_memo()

    @staticmethod
    def _circuit(name="demo"):
        circuit = Circuit(3, name)
        circuit.h(0).cx(0, 1).barrier(0, 1, 2).rz(0.3, 2).rz(0.4, 2)
        return circuit.cp(0.5, 1, 2).measure_all()

    @pytest.mark.parametrize("strip", [True, False])
    @pytest.mark.parametrize("merge", [True, False])
    def test_matches_the_pass_sequence(self, calls, strip, merge):
        circuit = self._circuit()
        expected = circuit.without(["barrier"]) if strip else circuit
        expected = decompose_to_native(expected)
        if merge:
            expected = merge_adjacent_rotations(expected)
        lowered = lower_to_native(circuit, strip_barriers=strip,
                                  merge_rotations=merge)
        assert lowered.gates == expected.gates
        assert lowered.name == expected.name == "demo_native"
        assert lowered.num_qubits == 3

    def test_mutating_the_result_does_not_leak(self, calls):
        circuit = self._circuit()
        first = lower_to_native(circuit)
        reference = first.gates
        first.x(0).h(1)
        second = lower_to_native(circuit)
        assert second is not first
        assert second.gates == reference
        assert len(calls) == 1

    def test_equal_content_hits(self, calls):
        lower_to_native(self._circuit())
        lower_to_native(self._circuit())
        assert len(calls) == 1

    @pytest.mark.parametrize("change", ["name", "gates", "strip", "merge",
                                        "width"])
    def test_different_content_misses(self, calls, change):
        lower_to_native(self._circuit())
        circuit = self._circuit()
        flags = {}
        if change == "name":
            circuit = self._circuit("other")
        elif change == "gates":
            circuit.x(1)
        elif change == "strip":
            flags["strip_barriers"] = False
        elif change == "merge":
            flags["merge_rotations"] = False
        else:
            circuit = Circuit(4, "demo").compose(circuit)
        lowered = lower_to_native(circuit, **flags)
        assert len(calls) == 2
        if change == "name":
            assert lowered.name == "other_native"
