"""Scenario harness: sampling, escape search, linear oracle, image area."""

import json
import math
import random
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
    symplectic_form,
    write_csv,
)
from kdvlab.errors import BlowUpError, KdvLabError, PreconditionError
from kdvlab.flows import FlowSpec, evolve, evolve_batch
from kdvlab.spectral import PeriodicField
from kdvlab.squeeze import (LOOP_POINTS, SearchBudget, _complex_normals, _propagate_linear,
                            _uniforms, evolved_pairing, hilbert_partner, slice_basis,
                            slice_loop)

import search_reference
from search_reference import assert_same_search, sequential_search


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
        for q in sample_ball(replace(linear_scenario, seed=7), 16):
            assert sobolev_norm(q - linear_scenario.center, -0.5, True) \
                < linear_scenario.R

    def test_bit_identical_for_same_seed(self, linear_scenario):
        a = sample_ball(replace(linear_scenario, seed=5), 8)
        b = sample_ball(replace(linear_scenario, seed=5), 8)
        assert all(np.array_equal(x.coeffs, y.coeffs) for x, y in zip(a, b))
        c = sample_ball(replace(linear_scenario, seed=6), 8)
        assert not any(np.array_equal(x.coeffs, y.coeffs) for x, y in zip(a, c))

    def test_normals_are_standard(self):
        # 10000 complex normals: 20000 real ones, mean 0 and variance 1 within 0.03
        z = _complex_normals(_uniforms(random.Random(1), 20000)).view(float)
        assert z.size == 20000
        assert abs(z.mean()) <= 0.03 and abs(z.var() - 1.0) <= 0.03

    def test_uniforms_in_unit_interval_and_pinned(self):
        u = _uniforms(random.Random(3), 10000)
        assert u.min() >= 0.0 and u.max() < 1.0
        # the stream itself: a change of byte order, bit selection or draw order moves these
        first = _uniforms(random.Random(0), 4)
        assert first.tolist() == [0.38524530801093704, 0.8902439183457648,
                                  0.040484381006232306, 0.9654648886665042]

    def test_samples_stay_in_band(self, linear_scenario):
        live = linear_scenario.live_modes()
        for q in sample_ball(replace(linear_scenario, seed=11), 6):
            v = q.coeffs - linear_scenario.center.coeffs
            assert np.max(np.abs(v[~live])) == 0.0


class TestEscapeSearch:
    def test_budget_zero_uses_initial_samples_only(self, linear_scenario):
        res = escape_search(linear_scenario, SearchBudget(rounds=0))
        # 16 seeded starts plus the two informed starts, no ascent rounds
        assert res.evaluations == 18

    @pytest.mark.parametrize("kind,kappa", [("kdv_linear", None),
                                            ("hkappa_linear", 2.0),
                                            ("hkappa_band_linear", 2.0)])
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

        for q0 in sample_ball(replace(linear_scenario, seed=2), 5):
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


# the KdV desk scenario: bench/workloads.py's ESCAPE_SCENARIO with seed 0
DESK_SCENARIO = base_config(grid={"length": 16.0, "cutoff": 32}, T=0.2, flow={"kind": "kdv"},
                            seed=0)


@pytest.fixture(scope="module")
def desk_scenario():
    return build_scenario(DESK_SCENARIO)


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
            out = serial_evolve_batch(q0s, spec)
            out[3] = BlowUpError("guard tripped", time=0.01)
            return out

        monkeypatch.setattr("kdvlab.squeeze.evolve_batch", fourth_fails)
        res = escape_search(kdv_scenario, SearchBudget(starts=6, rounds=0, dt=5e-3))
        assert res.failures == ["candidate 3: guard tripped"]
        assert res.evaluations == 8
        assert sizes == [8]  # the starts are one batch

    def test_image_area_matches_serial_loop(self, kdv_scenario, monkeypatch):
        batched = image_area(kdv_scenario, dt=5e-3)
        monkeypatch.setattr("kdvlab.squeeze.evolve_batch", serial_evolve_batch)
        serial = image_area(kdv_scenario, dt=5e-3)
        assert len(batched.values) == LOOP_POINTS
        assert np.max(np.abs(batched.values - serial.values)) <= \
            1e-13 * np.max(np.abs(serial.values))
        assert batched.area == pytest.approx(serial.area, rel=1e-12)


def recorded_batches(monkeypatch, fail=(), zeroed=()):
    """Each ``evolve_batch`` call of the search as (q0s, results); the rows
    (call, row) in ``fail`` come back as a BlowUpError, those in ``zeroed`` as
    the zero field."""
    batches = []

    def recording(q0s, spec):
        out = evolve_batch(q0s, spec)
        for call, row in fail:
            if call == len(batches):
                out[row] = BlowUpError("guard tripped", time=0.01)
        for call, row in zeroed:
            if call == len(batches):
                out[row] = out[row] * 0.0
        batches.append((list(q0s), out))
        return out

    monkeypatch.setattr("kdvlab.squeeze.evolve_batch", recording)
    return batches


def replay_search(scenario, budget, batches):
    """(best value, best point, rounds that gained) rebuilt from the recorded
    batches, asserting that each round's trials lie within its step of the
    round's starting best and pair up as +- steps around it.

    Batch 0 holds the starts and then round 1's speculative trials; round 1
    scored those when the search made one batch fewer than it has rounds + 1."""
    def scored(batch):
        return [(abs(pairing(scenario.observable, qT) - scenario.alpha_target), q0)
                for q0, qT in zip(*batch) if not isinstance(qT, KdvLabError)]

    n = budget.starts + 2
    q0s, out = batches[0]
    assert len(q0s) == n + (4 * budget.directions if budget.rounds else 0)
    rounds = batches[1:]
    if len(batches) == budget.rounds:
        rounds = [(q0s[n:], out[n:])] + rounds
    best_val, best = max(scored((q0s[:n], out[:n])), key=lambda t: t[0])
    step = budget.step * scenario.R
    cap = 0.9999 * scenario.R * (1 - 1e-9)
    gains = 0
    for batch in rounds:
        trials = batch[0]
        dist = [sobolev_norm(t - best, -0.5, True) for t in trials]
        assert max(dist) <= step * (1 + 1e-12)
        inside = [(a, b) for a, b in zip(trials[::2], trials[1::2])
                  if max(sobolev_norm(t - scenario.center, -0.5, True) for t in (a, b)) < cap]
        assert inside
        for a, b in inside:
            mid = (a.coeffs + b.coeffs) / 2
            assert np.max(np.abs(mid - best.coeffs)) <= 1e-15 * np.max(np.abs(best.coeffs))
        val, trial = max(scored(batch), key=lambda t: t[0])
        if val > best_val + 1e-15:
            best_val, best, gains = val, trial, gains + 1
        else:
            step *= 0.5
    return best_val, best, gains


class TestSearchPhases:
    # the two informed starts are stopped, so that the ascent starts from a
    # ball sample and gains in every round; steps this short leave some trial
    # pairs unclipped
    BUDGET = SearchBudget(starts=2, rounds=3, directions=2, dt=5e-3, step=0.0625)
    INFORMED = ((0, 2), (0, 3))

    def test_one_batch_per_phase_and_jacobi_rounds(self, kdv_scenario, monkeypatch):
        batches = recorded_batches(monkeypatch, fail=self.INFORMED)
        res = escape_search(kdv_scenario, self.BUDGET)
        # batch 0 also holds round 1's trials around the guessed start, dropped
        assert [len(q0s) for q0s, _ in batches] == [2 + 2 + 8] + [8] * 3
        assert res.evaluations == 4 + 3 * 8
        assert res.failures == ["candidate 2: guard tripped", "candidate 3: guard tripped"]
        value, witness, gains = replay_search(kdv_scenario, self.BUDGET, batches)
        assert gains == 3  # each round starts from the previous round's best trial
        assert res.value == value
        assert np.array_equal(res.witness.coeffs, witness.coeffs)

    def test_failed_ascent_row_is_named_and_others_scored(self, kdv_scenario, monkeypatch):
        budget = replace(self.BUDGET, rounds=1)
        batches = recorded_batches(monkeypatch, fail=self.INFORMED)
        escape_search(kdv_scenario, budget)
        _, out = batches[1]
        values = [abs(pairing(kdv_scenario.observable, qT) - kdv_scenario.alpha_target)
                  for qT in out]
        top = int(np.argmax(values))  # the trial the round moves to
        batches = recorded_batches(monkeypatch, fail=self.INFORMED + ((1, top),))
        res = escape_search(kdv_scenario, budget)
        assert res.failures == ["candidate 2: guard tripped", "candidate 3: guard tripped",
                                "ascent: guard tripped"]
        assert res.evaluations == 4 + 8
        value, witness, gains = replay_search(kdv_scenario, budget, batches)
        assert gains == 1  # the round still moves, to the best of the other trials
        assert res.value == value == sorted(values)[-2]
        assert np.array_equal(res.witness.coeffs, witness.coeffs)


def guess_row(scenario, budget):
    """Row of the starts' batch holding the guessed best start: the informed
    start whose linearised pairing is larger (z + R dual is the first)."""
    back = _propagate_linear(scenario.observable, scenario.flow, -scenario.T)
    return budget.starts + int(pairing(back, scenario.center) < scenario.alpha_target)


class TestSpeculativeRound:
    BUDGET = SearchBudget(starts=16, rounds=1, directions=8, dt=2e-3)  # the bench's search
    ROWS = 16 + 2 + 4 * 8

    def test_right_guess_is_one_batch(self, desk_scenario, monkeypatch):
        reference = sequential_search(desk_scenario, self.BUDGET)
        batches = recorded_batches(monkeypatch)
        res = escape_search(desk_scenario, self.BUDGET)
        assert [len(q0s) for q0s, _ in batches] == [self.ROWS]
        assert_same_search(res, reference)
        assert res.evaluations == self.ROWS

    @pytest.mark.parametrize("failed", [True, False], ids=["failed", "scored_below_the_best"])
    def test_wrong_guess_evolves_round_one_from_the_real_best(self, desk_scenario,
                                                               monkeypatch, failed):
        # the guessed start's row stops, or evolves to 0 (|<l, 0> - alpha| = alpha)
        guess = ((0, guess_row(desk_scenario, self.BUDGET)),)
        wrong = {"fail": guess} if failed else {"zeroed": guess}
        sequential = recorded_batches(monkeypatch, **wrong)
        reference = sequential_search(desk_scenario, self.BUDGET)
        batches = recorded_batches(monkeypatch, **wrong)
        paired = []

        def counted(scenario, qT):
            paired.append(qT)
            return evolved_pairing(scenario, qT)

        monkeypatch.setattr("kdvlab.squeeze.evolved_pairing", counted)
        res = escape_search(desk_scenario, self.BUDGET)
        assert [len(q0s) for q0s, _ in batches] == [self.ROWS, 32]
        assert_same_search(res, reference)
        assert res.failures == ([f"candidate {guess[0][1]}: guard tripped"] if failed else [])
        # the speculative rows are dropped unscored
        assert len(paired) == res.evaluations == 18 + 32
        assert not any(qT is seen for qT in batches[0][1][18:] for seen in paired)
        # round 1 steps from the real best start, as the sequential search does
        assert [len(q0s) for q0s, _ in sequential] == [18, 32]
        assert all(np.array_equal(a.coeffs, b.coeffs)
                   for a, b in zip(batches[1][0], sequential[1][0]))

    @pytest.mark.parametrize("rounds, directions", [(0, 8), (2, 0)])
    def test_no_trials_build_no_speculative_rows(self, desk_scenario, monkeypatch, rounds,
                                                 directions):
        budget = replace(self.BUDGET, rounds=rounds, directions=directions)
        reference = sequential_search(desk_scenario, budget)
        batches = recorded_batches(monkeypatch)
        res = escape_search(desk_scenario, budget)
        assert [len(q0s) for q0s, _ in batches if q0s] == [18]
        assert_same_search(res, reference)
        assert res.evaluations == 18

    def test_degenerate_dual_direction_has_no_guess(self, desk_scenario, monkeypatch):
        def degenerate(scenario, w):
            raise PreconditionError("degenerate dual direction (observable outside band)")

        monkeypatch.setattr("kdvlab.squeeze._dual_direction", degenerate)
        monkeypatch.setattr(search_reference, "_dual_direction", degenerate)
        reference = sequential_search(desk_scenario, self.BUDGET)
        batches = recorded_batches(monkeypatch)
        res = escape_search(desk_scenario, self.BUDGET)
        assert [len(q0s) for q0s, _ in batches] == [16, 32]
        assert_same_search(res, reference)


class TestSearchBudget:
    @pytest.mark.parametrize("field, value", [
        ("starts", 0), ("starts", -5), ("rounds", -3), ("directions", -1),
        ("step", 0.0), ("step", -1.0), ("dt", 0.0), ("dt", -1.0),
        ("step", math.inf), ("step", -math.inf), ("step", math.nan),
        ("dt", math.inf), ("dt", -math.inf), ("dt", math.nan),
    ])
    def test_rejects_out_of_domain_field(self, field, value):
        with pytest.raises(PreconditionError, match="search budget"):
            SearchBudget(**{field: value})

    def test_zero_rounds_and_directions_accepted(self):
        assert SearchBudget(rounds=0, directions=0).rounds == 0

    def test_time_step_beyond_horizon_refused_before_any_evolve(self, kdv_scenario,
                                                                 monkeypatch):
        batches = recorded_batches(monkeypatch)
        with pytest.raises(PreconditionError, match="dt must not exceed T"):
            escape_search(kdv_scenario, SearchBudget(starts=2, rounds=0,
                                                     dt=2 * kdv_scenario.T))
        assert batches == []


class TestLinearOracle:
    def test_zero_center_zero_target_gives_R(self):
        cfg = base_config(center={"modes": []}, alpha=0.0)
        s = build_scenario(cfg)
        assert linear_oracle(s) == pytest.approx(s.R, rel=1e-12)

    def test_time_zero_form(self):
        s = build_scenario(base_config(T=0.0))
        expected = abs(pairing(s.observable, s.center) - s.alpha_target) + s.R
        assert linear_oracle(s) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("flow", [{"kind": "kdv"}, {"kind": "hkappa", "kappa": 2.0},
                                      {"kind": "hkappa_band", "kappa": 2.0}],
                             ids=lambda f: f["kind"])
    def test_nonlinear_flow_gets_its_linearisations_value(self, flow):
        s = build_scenario(base_config(flow=flow))
        linear = replace(s, flow=s.flow.linearised())
        assert linear.flow.kind == flow["kind"] + "_linear"
        assert linear_oracle(s) == linear_oracle(linear)


class TestImageArea:
    def test_slice_basis_conjugate_pair(self, linear_scenario):
        e1, e2 = slice_basis(linear_scenario)
        assert sobolev_norm(e1, -0.5, True) == pytest.approx(1.0, abs=1e-10)
        assert sobolev_norm(e2, -0.5, True) == pytest.approx(1.0, abs=1e-10)
        h = hilbert_partner(linear_scenario.observable)
        assert sobolev_norm(h, 0.5, True) == pytest.approx(1.0, abs=1e-10)

    def test_free_flow_disk_area(self, linear_scenario):
        res = image_area(linear_scenario)
        expected = math.pi * linear_scenario.R ** 2
        assert abs(res.area - expected) <= 1e-12 * expected

    def test_area_shrinks_with_R(self, linear_scenario):
        small = replace(linear_scenario, R=0.01, r=0.005)
        ratio = image_area(small).area / image_area(linear_scenario).area
        assert ratio == pytest.approx((0.01 / linear_scenario.R) ** 2, rel=1e-12)

    def test_nonlinear_path_runs(self):
        cfg = base_config(flow={"kind": "kdv"}, T=0.05,
                          grid={"length": 16.0, "cutoff": 24})
        s = build_scenario(cfg)
        res = image_area(s, dt=5e-3)
        assert res.area > 0.0
        assert len(res.values) == LOOP_POINTS

    def test_kdv_desk_scenario_area(self, desk_scenario):
        # the loop is band-limited far below LOOP_POINTS / 2: 8 to 64 points
        # give this value to 14 digits
        res = image_area(desk_scenario, dt=2e-3)
        expected = math.pi * desk_scenario.R ** 2
        assert res.area / expected == pytest.approx(0.99999997896, rel=1e-9)


def loop_action(rows):
    """A(gamma) = 1/2 mean_theta omega(gamma, d gamma / d theta) of a loop sampled
    at equispaced theta, the theta-derivative spectral (Nyquist mode dropped)."""
    n = len(rows)
    k = np.fft.fftfreq(n, 1.0 / n)
    k[n // 2] = 0.0
    c = np.array([q.coeffs for q in rows])
    dc = np.fft.ifft(1j * k[:, None] * np.fft.fft(c, axis=0), axis=0)
    grid = rows[0].grid
    return 0.5 * np.mean([symplectic_form(q, PeriodicField(grid, d)) for q, d in zip(rows, dc)])


class TestLoopAction:
    """The slice loop's symplectic action is -R^2 / (4 pi) and a symplectic
    flow keeps it: a check of the flows on a loop through the whole phase space."""

    def evolved_action(self, scenario, dt):
        loop = slice_loop(scenario)
        start = loop_action(loop)
        assert start == pytest.approx(-scenario.R ** 2 / (4.0 * math.pi), rel=1e-12)
        end = loop_action(evolve_batch(loop, FlowSpec(scenario.flow, dt=dt, T=scenario.T,
                                                      saves=1)))
        return abs(end - start) / abs(start)

    def test_kdv_flow_keeps_action(self, desk_scenario):
        assert self.evolved_action(desk_scenario, 2e-3) <= 1e-9

    def test_linear_flow_keeps_action(self):
        s = build_scenario(DESK_SCENARIO | {"flow": {"kind": "kdv_linear"}})
        assert self.evolved_action(s, 2e-3) <= 1e-13


class TestReporting:
    def test_write_csv_deterministic(self, tmp_path):
        rows = [[1, 0.1, 2.5e-3], [2, 0.2, 3.5e-7]]
        p1 = write_csv(tmp_path / "a.csv", ["i", "x", "y"], rows)
        p2 = write_csv(tmp_path / "b.csv", ["i", "x", "y"], rows)
        assert sha256_digest(p1) == sha256_digest(p2)

    def test_float_rows_are_written_as_each_cell_alone(self, tmp_path):
        # a row of Python floats is joined from repr, any other row cell by cell
        # through _fmt (numpy scalars, ints, bools, text): one format either way
        rows = [[0.1, -2.5e-300, math.inf, math.nan, 1e22, -0.0],
                [np.float64(0.1), 3, True, np.int64(-4), np.bool_(False), "x"],
                [], [1.0 / 3.0]]
        p = write_csv(tmp_path / "t.csv", ["a"], rows)
        assert p.read_text() == ("a\n0.1,-2.5e-300,inf,nan,1e+22,-0.0\n0.1,3,1,-4,0,x\n"
                                 "\n0.3333333333333333\n")

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
