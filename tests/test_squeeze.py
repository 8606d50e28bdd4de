"""Scenario harness: sampling, escape search, linear oracle, image area."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from kdvlab import (
    RunManifest,
    build_scenario,
    escape_search,
    image_area,
    linear_oracle,
    pairing,
    run_report,
    sample_ball,
    sha256_digest,
    sobolev_norm,
    write_csv,
)
from kdvlab.errors import BlowUpError, KdvLabError, PreconditionError
from kdvlab.flows import FlowSpec, evolve
from kdvlab.squeeze import SearchBudget, hilbert_partner, slice_basis


def base_config(**overrides):
    cfg = {
        "grid": {"length": 16.0, "cutoff": 48},
        "band": {"m": 0.25, "M": 2.0},
        "center": {"kind": "gauss_prime", "width": 1.0, "amplitude": 0.05},
        "observable": {"kind": "gauss_bump", "width": 1.5, "amplitude": 1.0},
        "alpha": 0.01,
        "r": 0.02,
        "R": 0.04,
        "T": 0.7,
        "flow": {"kind": "kdv_linear"},
        "seed": 42,
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture(scope="module")
def linear_scenario():
    return build_scenario(base_config())


class TestBuildScenario:
    def test_observable_unit_norm(self, linear_scenario):
        val = sobolev_norm(linear_scenario.observable, 0.5, homogeneous=True)
        assert abs(val - 1.0) <= 1e-10

    def test_center_mean_zero_and_banded(self, linear_scenario):
        z = linear_scenario.center
        assert z.is_mean_zero()
        live = linear_scenario.live_modes()
        assert np.max(np.abs(z.coeffs[~live])) == 0.0

    def test_band_widening_improves_center(self):
        # || zeta - z ||_{L^2} decreases as the band widens
        prev = None
        for m, M in [(0.5, 1.0), (0.25, 2.0), (0.125, 4.0)]:
            cfg = base_config(band={"m": m, "M": M})
            s = build_scenario(cfg)
            from kdvlab.squeeze import periodized_field, prototype_callable

            z_raw = periodized_field(prototype_callable(cfg["center"]), s.grid)
            gap = sobolev_norm(s.center - z_raw, 0.0)
            if prev is not None:
                assert gap < prev
            prev = gap

    def test_zero_center_prototype_valid(self):
        cfg = base_config(center={"modes": []})
        s = build_scenario(cfg)
        assert np.all(s.center.coeffs == 0.0)

    def test_r_ge_R_rejected(self):
        with pytest.raises(PreconditionError):
            build_scenario(base_config(r=0.05, R=0.04))


class TestSampleBall:
    def test_ball_constraint(self, linear_scenario):
        for q in sample_ball(linear_scenario, 16, seed=7):
            assert sobolev_norm(q - linear_scenario.center, -0.5, True) \
                < linear_scenario.R

    def test_bit_identical_for_same_seed(self, linear_scenario):
        a = sample_ball(linear_scenario, 8, seed=5)
        b = sample_ball(linear_scenario, 8, seed=5)
        assert all(np.array_equal(x.coeffs, y.coeffs) for x, y in zip(a, b))

    def test_radius_factor_zero_reproduces_center(self, linear_scenario):
        for q in sample_ball(linear_scenario, 4, seed=3, radius_factor=0.0):
            assert np.array_equal(q.coeffs, linear_scenario.center.coeffs)

    def test_samples_stay_in_band(self, linear_scenario):
        live = linear_scenario.live_modes()
        for q in sample_ball(linear_scenario, 6, seed=11):
            v = q.coeffs - linear_scenario.center.coeffs
            assert np.max(np.abs(v[~live])) == 0.0


class TestEscapeSearch:
    def test_budget_zero_uses_initial_samples_only(self, linear_scenario):
        res = escape_search(linear_scenario, SearchBudget(rounds=0))
        # 16 seeded starts plus the two informed starts, no ascent rounds
        assert res.evaluations == 18

    @pytest.mark.parametrize("kind,kappa", [("kdv_linear", None),
                                            ("hkappa_linear", 2.0)])
    def test_matches_linear_oracle(self, kind, kappa):
        flow = {"kind": kind}
        if kappa is not None:
            flow["kappa"] = kappa
        s = build_scenario(base_config(flow=flow))
        res = escape_search(s, SearchBudget(starts=8, rounds=1))
        oracle = linear_oracle(s)
        assert res.value <= oracle + 1e-12
        assert oracle - res.value <= 1e-3 * s.R

    def test_lower_bound_from_duality(self, linear_scenario):
        from kdvlab.squeeze import _propagate_linear

        back = _propagate_linear(linear_scenario.observable,
                                 linear_scenario.flow, -linear_scenario.T)
        base = abs(pairing(back, linear_scenario.center)
                   - linear_scenario.alpha_target)
        res = escape_search(linear_scenario, SearchBudget(starts=8, rounds=1))
        assert res.value >= base + linear_scenario.R - 1e-3

    def test_escape_monotone_in_R_linear_flow(self, linear_scenario):
        vals = []
        for radius in (0.02, 0.04, 0.08):
            s = replace(linear_scenario, R=radius, r=0.01)
            vals.append(escape_search(s, SearchBudget(rounds=0)).value)
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_kdv_desk_scenario_exceeds_r(self):
        cfg = base_config(flow={"kind": "kdv"}, T=0.2,
                          grid={"length": 16.0, "cutoff": 32})
        s = build_scenario(cfg)
        res = escape_search(s, SearchBudget(starts=4, rounds=0, dt=2e-3))
        assert res.exceeds_r
        assert res.value > s.r

    def test_projection_bound(self, linear_scenario):
        # |<l, q(T)>| <= ||q(T)||_{Hdot^{-1/2}} for unit l
        from kdvlab.squeeze import _propagate_linear

        for q0 in sample_ball(linear_scenario, 5, seed=2):
            qT = _propagate_linear(q0, linear_scenario.flow, linear_scenario.T)
            val = abs(pairing(linear_scenario.observable, qT))
            assert val <= sobolev_norm(qT, -0.5, True) * (1 + 1e-12)


def serial_evolve_batch(q0s, spec):
    """Per-candidate reference for ``evolve_batch``: one ``evolve`` per member."""
    out = []
    for q0 in q0s:
        try:
            out.append(evolve(q0, spec).final())
        except KdvLabError as exc:
            out.append(exc)
    return out


@pytest.fixture(scope="module")
def kdv_scenario():
    return build_scenario(base_config(flow={"kind": "kdv"}, T=0.05,
                                      grid={"length": 16.0, "cutoff": 24}))


class TestBatchedEvaluations:
    def test_escape_search_matches_serial_reference(self, kdv_scenario, monkeypatch):
        budget = SearchBudget(starts=6, rounds=1, directions=2, dt=5e-3)
        batched = escape_search(kdv_scenario, budget)
        monkeypatch.setattr("kdvlab.squeeze.evolve_batch", serial_evolve_batch)
        serial = escape_search(kdv_scenario, budget)
        assert batched.value == pytest.approx(serial.value, rel=1e-13, abs=0)
        assert batched.evaluations == serial.evaluations == 6 + 2 + 2 * 2 * 2
        assert batched.failures == serial.failures == []

    def test_failed_start_is_named(self, kdv_scenario, monkeypatch):
        sizes = []

        def fourth_fails(q0s, spec):
            sizes.append(len(q0s))
            if len(sizes) == 4:
                return [BlowUpError("guard tripped", time=0.01)]
            return serial_evolve_batch(q0s, spec)

        monkeypatch.setattr("kdvlab.squeeze.evolve_batch", fourth_fails)
        res = escape_search(kdv_scenario, SearchBudget(starts=6, rounds=0, dt=5e-3))
        assert res.failures == ["candidate 3: guard tripped"]
        assert res.evaluations == 8
        assert sizes == [1] * 8  # one evaluation per evolved_pairing call

    def test_image_area_matches_serial_loop(self, kdv_scenario, monkeypatch):
        kwargs = dict(resolution=32, rings=3, angles=12, dt=5e-3)
        batched = image_area(kdv_scenario, **kwargs)
        monkeypatch.setattr("kdvlab.squeeze.evolve_batch", serial_evolve_batch)
        serial = image_area(kdv_scenario, **kwargs)
        assert len(batched.values) == 1 + 3 * 12
        assert np.max(np.abs(batched.values - serial.values)) <= \
            1e-13 * np.max(np.abs(serial.values))
        assert batched.area == pytest.approx(serial.area, rel=1e-12)


class TestLinearOracle:
    def test_zero_center_zero_target_gives_R(self):
        cfg = base_config(center={"modes": []}, alpha=0.0)
        s = build_scenario(cfg)
        assert linear_oracle(s) == pytest.approx(s.R, rel=1e-12)

    def test_time_zero_form(self):
        s = build_scenario(base_config(T=0.0))
        expected = abs(pairing(s.observable, s.center) - s.alpha_target) + s.R
        assert linear_oracle(s) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonlinear_flow(self):
        s = build_scenario(base_config(flow={"kind": "kdv"}))
        with pytest.raises(PreconditionError):
            linear_oracle(s)


class TestImageArea:
    def test_slice_basis_conjugate_pair(self, linear_scenario):
        e1, e2 = slice_basis(linear_scenario)
        assert sobolev_norm(e1, -0.5, True) == pytest.approx(1.0, abs=1e-10)
        assert sobolev_norm(e2, -0.5, True) == pytest.approx(1.0, abs=1e-10)
        h = hilbert_partner(linear_scenario.observable)
        assert sobolev_norm(h, 0.5, True) == pytest.approx(1.0, abs=1e-10)

    def test_free_flow_disk_area(self, linear_scenario):
        res = image_area(linear_scenario, resolution=256)
        expected = math.pi * linear_scenario.R ** 2
        assert abs(res.area - expected) <= 0.05 * expected

    def test_area_shrinks_with_R(self, linear_scenario):
        small = replace(linear_scenario, R=0.01, r=0.005)
        a_small = image_area(small, resolution=128).area
        a_big = image_area(linear_scenario, resolution=128).area
        assert a_small < 0.2 * a_big

    def test_nonlinear_path_runs(self):
        cfg = base_config(flow={"kind": "kdv"}, T=0.05,
                          grid={"length": 16.0, "cutoff": 24})
        s = build_scenario(cfg)
        res = image_area(s, resolution=32, rings=3, angles=12, dt=5e-3)
        assert res.area > 0.0
        assert len(res.values) == 1 + 3 * 12


class TestReporting:
    def test_write_csv_deterministic(self, tmp_path):
        rows = [[1, 0.1, 2.5e-3], [2, 0.2, 3.5e-7]]
        p1 = write_csv(tmp_path / "a.csv", ["i", "x", "y"], rows)
        p2 = write_csv(tmp_path / "b.csv", ["i", "x", "y"], rows)
        assert sha256_digest(p1) == sha256_digest(p2)

    def test_manifest_round_trip(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["x"], [[1.0]])
        man = RunManifest(config={"demo": True}, seeds={"rng": 0})
        man.add_output(p)
        paths = run_report(man, tmp_path)
        with open(paths[0]) as fh:
            data = json.load(fh)
        assert data["outputs"]["t.csv"] == sha256_digest(p)
        assert data["seeds"] == {"rng": 0}

    def test_empty_run_set(self, tmp_path):
        man = RunManifest()
        paths = run_report(man, tmp_path)
        with open(paths[0]) as fh:
            data = json.load(fh)
        assert data["outputs"] == {}

    def test_rerun_reproduces_digests(self, tmp_path, linear_scenario):
        def run(name):
            res = escape_search(linear_scenario, SearchBudget(rounds=0))
            return write_csv(tmp_path / name, ["value"], [[res.value]])

        assert sha256_digest(run("r1.csv")) == sha256_digest(run("r2.csv"))
