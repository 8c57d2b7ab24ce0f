"""BTI model, stress extraction and delay degradation."""

import numpy as np
import pytest

from repro.aging import (
    AgedCircuitFactory,
    BTIModel,
    StressProfile,
    aging_delay_scale,
    delay_scale_factor,
    extract_stress,
)
from repro.arith import column_bypass_multiplier
from repro.config import DEFAULT_TECHNOLOGY
from repro.errors import ConfigError, SimulationError
from repro.timing import CompiledCircuit
from repro.workloads import uniform_operands


class TestBTIModel:
    model = BTIModel()

    def test_kdc_positive(self):
        assert self.model.k_dc("nbti") > 0
        assert self.model.k_dc("pbti") > 0

    def test_pbti_scaled_by_ratio(self):
        tech = DEFAULT_TECHNOLOGY
        # Same overdrive isolates the pbti_ratio factor.
        model = BTIModel(tech.replace(vth_n=tech.vth_p))
        assert model.k_dc("pbti") == pytest.approx(
            tech.pbti_ratio * model.k_dc("nbti")
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            self.model.k_dc("hci")

    def test_alpha_monotone_in_duty(self):
        probes = np.linspace(0, 1, 11)
        alphas = self.model.alpha(probes)
        assert np.all(np.diff(alphas) >= 0)
        assert alphas[0] == 0.0
        assert alphas[-1] == pytest.approx(1.0)

    def test_drift_follows_power_law(self):
        """dVth(t) ~ t^(1/6): doubling time scales by 2^(1/6)."""
        one = float(self.model.delta_vth(1.0, 0.5))
        two = float(self.model.delta_vth(2.0, 0.5))
        assert two / one == pytest.approx(2 ** (1 / 6), rel=1e-6)

    def test_zero_years_zero_drift(self):
        assert float(self.model.delta_vth(0.0, 0.5)) == 0.0

    def test_negative_years_rejected(self):
        with pytest.raises(ConfigError):
            self.model.delta_vth(-1.0, 0.5)

    def test_static_worse_than_ac(self):
        assert self.model.static_drift(7.0) > float(
            self.model.delta_vth(7.0, 0.5)
        )

    def test_drift_clamped_below_overdrive(self):
        huge = BTIModel(DEFAULT_TECHNOLOGY.replace(bti_prefactor=1e15))
        drift = huge.static_drift(7.0)
        assert drift < DEFAULT_TECHNOLOGY.gate_overdrive_p

    def test_seven_year_magnitude_is_tens_of_mv(self):
        """Sanity: the calibrated model lands in the published range."""
        drift = float(self.model.delta_vth(7.0, 0.5))
        assert 0.02 < drift < 0.12


class TestStressExtraction:
    def test_default_is_half(self, cb4):
        profile = extract_stress(cb4, None)
        assert np.all(profile.pmos_stress == 0.5)
        assert profile.num_cells == len(cb4.cells)

    def test_complementary(self, cb4):
        circuit = CompiledCircuit(cb4)
        md, mr = uniform_operands(4, 300, seed=19)
        result = circuit.run(
            {"md": md, "mr": mr}, collect_net_stats=True
        )
        profile = extract_stress(cb4, result.signal_prob)
        assert np.allclose(profile.pmos_stress + profile.nmos_stress, 1.0)
        assert 0.0 <= profile.mean_pmos() <= 1.0

    @pytest.mark.parametrize("name", ["am4", "cb4", "rb4", "cb16"])
    def test_matches_per_cell_mean(self, request, name):
        netlist = request.getfixturevalue(name)
        probs = np.random.default_rng(3).uniform(size=netlist.num_nets)
        profile = extract_stress(netlist, probs)
        ones = np.array([
            float(np.mean([probs[net] for net in cell.inputs]))
            for cell in netlist.cells
        ])
        assert profile.nmos_stress.tobytes() == ones.tobytes()
        assert profile.pmos_stress.tobytes() == (1.0 - ones).tobytes()

    def test_short_prob_vector_rejected(self, cb4):
        with pytest.raises(SimulationError):
            extract_stress(cb4, np.zeros(3))

    def test_out_of_range_probs_rejected(self, cb4):
        probs = np.zeros(cb4.num_nets)
        probs[5] = 1.5
        with pytest.raises(SimulationError):
            extract_stress(cb4, probs)

    def test_profile_shape_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            StressProfile("x", np.zeros(3), np.zeros(4))


class TestDegradation:
    def test_scale_factor_identity_at_zero_drift(self):
        assert delay_scale_factor(np.zeros(3), 0.6, 1.3).tolist() == [
            1.0, 1.0, 1.0,
        ]

    def test_scale_factor_monotone(self):
        drifts = np.linspace(0, 0.1, 5)
        scales = delay_scale_factor(drifts, 0.6, 1.3)
        assert np.all(np.diff(scales) > 0)

    def test_scale_factor_rejects_excessive_drift(self):
        with pytest.raises(SimulationError):
            delay_scale_factor(np.array([0.7]), 0.6, 1.3)

    def test_scale_factor_rejects_negative(self):
        with pytest.raises(SimulationError):
            delay_scale_factor(np.array([-0.01]), 0.6, 1.3)

    def test_aging_delay_scale_all_above_one(self, cb4):
        profile = extract_stress(cb4, None)
        scale = aging_delay_scale(cb4, profile, 5.0)
        assert scale.shape == (len(cb4.cells),)
        assert np.all(scale > 1.0)

    def test_aging_scale_grows_with_years(self, cb4):
        profile = extract_stress(cb4, None)
        early = aging_delay_scale(cb4, profile, 1.0)
        late = aging_delay_scale(cb4, profile, 7.0)
        assert np.all(late > early)

    def test_mismatched_profile_rejected(self, cb4, am4):
        profile = extract_stress(am4, None)
        with pytest.raises(SimulationError):
            aging_delay_scale(cb4, profile, 1.0)


class TestAgedCircuitFactory:
    @pytest.fixture(scope="class")
    def factory(self):
        netlist = column_bypass_multiplier(6)
        return AgedCircuitFactory.characterize(
            netlist, num_patterns=300, seed=23
        )

    def test_fresh_circuit_has_unit_scale(self, factory):
        circuit = factory.circuit(0.0)
        assert np.all(circuit.delay_scale == 1.0)

    def test_circuits_cached(self, factory):
        assert factory.circuit(3.0) is factory.circuit(3.0)
        assert factory.circuit(3.0) is not factory.circuit(4.0)

    def test_aged_slower_everywhere(self, factory):
        md, mr = uniform_operands(6, 200, seed=29)
        fresh = factory.circuit(0.0).run({"md": md, "mr": mr})
        aged = factory.circuit(7.0).run({"md": md, "mr": mr})
        assert np.all(aged.delays >= fresh.delays - 1e-12)
        assert aged.mean_delay > fresh.mean_delay

    def test_aged_functionally_identical(self, factory):
        md, mr = uniform_operands(6, 200, seed=31)
        fresh = factory.circuit(0.0).run({"md": md, "mr": mr})
        aged = factory.circuit(7.0).run({"md": md, "mr": mr})
        assert np.array_equal(fresh.outputs["p"], aged.outputs["p"])

    def test_mean_delta_vth(self, factory):
        assert factory.mean_delta_vth(0.0) == 0.0
        assert 0.0 < factory.mean_delta_vth(7.0) < 0.2
        assert factory.mean_delta_vth(7.0) > factory.mean_delta_vth(1.0)


class TestCharacterizationStimulus:
    """Regression: width >= 64 ports must draw the full uint64 range.

    An earlier revision drew from ``[0, 2**63)`` for 64-bit ports, so
    bit 63 was constant-0 through characterization -- biasing the
    measured signal probabilities (and hence BTI stress) of everything
    fed by the top operand bit.
    """

    def _stimulus(self, width, n=4000, seed=17):
        from collections import namedtuple

        from repro.aging.degradation import characterization_stimulus

        Port = namedtuple("Port", "width")
        return characterization_stimulus(
            {"md": Port(width)}, n, seed
        )["md"]

    def test_narrow_ports_bounded(self):
        for width in (4, 16, 32, 63):
            draws = self._stimulus(width)
            assert draws.dtype == np.uint64
            assert int(draws.max()) < (1 << width)
            # The top in-range bit is actually exercised.
            top = (draws >> np.uint64(width - 1)) & np.uint64(1)
            assert 0.4 < top.mean() < 0.6

    def test_wide_port_exercises_bit_63(self):
        draws = self._stimulus(64)
        top = (draws >> np.uint64(63)) & np.uint64(1)
        assert top.any(), "bit 63 never drawn (the [0, 2**63) bug)"
        assert 0.45 < top.mean() < 0.55

    def test_wide_port_bits_uniform(self):
        """Every bit lane of a 64-bit draw is ~fair -- pins the
        distribution, not just the top bit."""
        draws = self._stimulus(64, n=8000)
        for bit in (0, 31, 62, 63):
            lane = (draws >> np.uint64(bit)) & np.uint64(1)
            assert 0.45 < lane.mean() < 0.55, "bit %d biased" % bit

    def test_deterministic_per_seed(self):
        assert np.array_equal(self._stimulus(64), self._stimulus(64))
        assert not np.array_equal(
            self._stimulus(64, seed=17), self._stimulus(64, seed=18)
        )
