"""Tests for temperature-driven reliability metrics."""

import math

import pytest

from repro.analysis.reliability import (
    BOLTZMANN_EV,
    ReliabilityReport,
    arrhenius_acceleration,
    electromigration_mttf_factor,
    reliability_report,
)
from repro.errors import ReproError


class TestArrhenius:
    def test_reference_is_unity(self):
        assert arrhenius_acceleration(85.0, 85.0) == pytest.approx(1.0)

    def test_hotter_accelerates(self):
        assert arrhenius_acceleration(105.0, 85.0) > 1.0

    def test_cooler_decelerates(self):
        assert arrhenius_acceleration(65.0, 85.0) < 1.0

    def test_closed_form(self):
        ea = 0.7
        t, t_ref = 273.15 + 100.0, 273.15 + 60.0
        expected = math.exp(ea / BOLTZMANN_EV * (1.0 / t_ref - 1.0 / t))
        assert arrhenius_acceleration(100.0, 60.0, ea) == pytest.approx(expected)

    def test_rule_of_thumb_doubling(self):
        """With Ea ~ 0.7 eV failure rates roughly double per 10 °C near 85 C."""
        factor = arrhenius_acceleration(95.0, 85.0)
        assert 1.5 < factor < 2.5

    def test_bad_activation_energy(self):
        with pytest.raises(ReproError):
            arrhenius_acceleration(85.0, 85.0, activation_energy_ev=0.0)


class TestMTTF:
    def test_inverse_of_acceleration(self):
        accel = arrhenius_acceleration(100.0, 65.0)
        assert electromigration_mttf_factor(100.0, 65.0) == pytest.approx(
            1.0 / accel
        )

    def test_hotter_shorter_life(self):
        assert electromigration_mttf_factor(110.0) < electromigration_mttf_factor(
            90.0
        )


class TestReport:
    def test_report_fields(self):
        report = reliability_report({"pe0": 95.0, "pe1": 80.0}, ref_temp_c=65.0)
        assert report.worst_pe == "pe0"
        assert report.system_mttf_factor == pytest.approx(
            report.pe_mttf_factors["pe0"]
        )
        assert set(report.pe_mttf_factors) == {"pe0", "pe1"}

    def test_system_limited_by_hottest(self):
        report = reliability_report({"a": 70.0, "b": 120.0})
        assert report.system_mttf_factor == min(report.pe_mttf_factors.values())

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            reliability_report({})

    def test_as_row(self):
        row = reliability_report({"a": 80.0}).as_row()
        assert {"ref_temp_C", "system_mttf_factor", "worst_pe"} <= set(row)

    def test_thermal_aware_schedule_lives_longer(self):
        """End-to-end: the paper's reliability motivation, quantified."""
        from repro.flow import platform_spec, run_flow

        base = run_flow(platform_spec("Bm1", policy="baseline"))
        thermal = run_flow(platform_spec("Bm1", policy="thermal"))
        report_base = reliability_report(base.evaluation.pe_temperatures)
        report_thermal = reliability_report(thermal.evaluation.pe_temperatures)
        assert (
            report_thermal.system_mttf_factor > report_base.system_mttf_factor
        )
