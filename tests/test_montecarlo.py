"""Ensemble plumbing, tail estimators, and the sup/inf experiment."""

import dataclasses

import numpy as np
import pytest

from oracles import inf_on, joint_tail
from spdelab import montecarlo
from spdelab.errors import (EmptyRegionError, GeometryError,
                            InsufficientDataError, InvalidArgumentError, ModelInvalidError)
from spdelab.fields import FieldPath, Grid, sup_on
from spdelab.geometry import Ball, SpaceTimeRect
from spdelab.montecarlo import (Ensemble, ExperimentSpec, comparison_experiment,
                                filter_lemma_check, harnack_curve,
                                indicator_monotonicity, median_sup,
                                positivity_scan, run_ensemble, validate_windows,
                                wilson_interval)
from spdelab.solver import ModelParams

Q_RECT = SpaceTimeRect(0.05, 0.1, Ball((0.0,), 1.0))
P_RECT = SpaceTimeRect(0.15, 0.25, Ball((0.0,), 1.0))
BOX = SpaceTimeRect(0.0, 0.25, Ball((0.0,), 2.0))


@pytest.fixture(scope="module")
def region_spec():
    return ExperimentSpec(grid=Grid.regular(1, 32), horizon=0.25, n_paths=12,
                          master_seed=5, chunk=4,
                          regions={"Q": Q_RECT, "P": P_RECT, "box": BOX})


@pytest.fixture(scope="module")
def region_ensemble(region_spec):
    return run_ensemble(region_spec)


def synthetic_ensemble(supq, infp, failed=None):
    """Ensemble with hand-chosen region extrema; no integration involved."""
    n = len(supq)
    spec = ExperimentSpec(grid=Grid.regular(1, 8), horizon=0.25, n_paths=n,
                          regions={"Q": Q_RECT, "P": P_RECT})
    failed = np.zeros(n, dtype=bool) if failed is None else np.asarray(failed)
    sup = {"Q": np.asarray(supq, dtype=float), "P": np.full(n, np.nan)}
    inf = {"Q": np.full(n, np.nan), "P": np.asarray(infp, dtype=float)}
    return Ensemble(spec=spec, sup=sup, inf=inf, neg_energy=np.zeros(n),
                    neg_min=np.zeros(n), failed=failed, fail_steps=np.where(failed, 3, -1))


def test_spec_validation():
    g = Grid.regular(1, 16)
    with pytest.raises(InvalidArgumentError):
        ExperimentSpec(grid=g, n_paths=0)
    with pytest.raises(InvalidArgumentError):
        ExperimentSpec(grid=g, horizon=0.0)
    with pytest.raises(InvalidArgumentError):
        ExperimentSpec(grid=g, chunk=0)
    with pytest.raises(InvalidArgumentError):
        ExperimentSpec(grid=g, gammas=(1.0, -2.0))
    with pytest.raises(InvalidArgumentError):
        ExperimentSpec(grid=g, floor=-0.5)
    with pytest.raises(InvalidArgumentError):
        # region sticks out past the horizon
        ExperimentSpec(grid=g, horizon=0.2, regions={"Q": P_RECT})
    with pytest.raises(InvalidArgumentError):
        # region ball exits the periodic box
        bad = SpaceTimeRect(0.0, 0.1, Ball((1.5,), 1.0))
        ExperimentSpec(grid=g, regions={"edge": bad})


def test_chunking_does_not_change_results(region_spec, region_ensemble):
    respec = ExperimentSpec(grid=region_spec.grid, horizon=0.25, n_paths=12,
                            master_seed=5, chunk=5,
                            regions=dict(region_spec.regions))
    other = run_ensemble(respec)
    for name in ("Q", "P", "box"):
        assert np.array_equal(other.sup[name], region_ensemble.sup[name])
        assert np.array_equal(other.inf[name], region_ensemble.inf[name])
    assert np.array_equal(other.neg_energy, region_ensemble.neg_energy)


def test_threading_does_not_change_results(region_spec, region_ensemble):
    other = run_ensemble(region_spec, threads=3)
    for name in ("Q", "P", "box"):
        assert np.array_equal(other.sup[name], region_ensemble.sup[name])
        assert np.array_equal(other.inf[name], region_ensemble.inf[name])
    assert np.array_equal(other.neg_energy, region_ensemble.neg_energy)


def test_consumers_see_full_paths(region_spec, region_ensemble):
    grid = region_spec.grid
    seen = {}

    def consume(i, fp):
        seen[i] = fp

    run_ensemble(region_spec, consumers=[consume])
    assert sorted(seen) == list(range(12))
    fp = seen[0]
    assert isinstance(fp, FieldPath)
    assert fp.times[-1] == pytest.approx(0.25)
    # recorder summaries agree with the recomputation from the history,
    # under the shared left-endpoint step convention
    nodes = np.nonzero(grid.node_mask(Q_RECT.ball))[0]
    for i, fp in seen.items():
        steps = fp.step_indices(Q_RECT.t_lo, Q_RECT.t_hi)
        want = float(np.max(fp.values[np.ix_(steps, nodes)]))
        assert region_ensemble.sup["Q"][i] == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("n", [1, 2])
def test_recorded_extrema_equal_sup_inf_on_the_paths(n):
    # the streaming recorders and sup_on/inf_on read the same region rows,
    # so they agree exactly
    center = (0.0,) * n
    regions = {"Q": SpaceTimeRect(0.05, 0.1, Ball(center, 1.0)),
               "P": SpaceTimeRect(0.15, 0.25, Ball((0.25,) + center[1:], 0.75)),
               "box": SpaceTimeRect(0.0, 0.25, Ball(center, 2.0))}
    spec = ExperimentSpec(grid=Grid.regular(n, 16), horizon=0.25, n_paths=5,
                          master_seed=9, chunk=2, regions=regions)
    seen = {}
    ens = run_ensemble(spec, consumers=[seen.__setitem__])
    assert sorted(seen) == list(range(5))
    for rect in regions.values():
        for i, fp in seen.items():
            assert ens.sup_over(rect)[i] == sup_on(fp, rect)
            assert ens.inf_over(rect)[i] == inf_on(fp, rect)


# at npts 32 (dt = 1/128) and npts 64 (dt = 1/512) no step starts in
# (0.1001, 0.1002], and no node lies within 1e-6 of 0.01
NO_STEP = SpaceTimeRect(0.1001, 0.1002, Ball((0.0,), 1.0))
NO_NODE = SpaceTimeRect(0.15, 0.25, Ball((0.01,), 1e-6))


@pytest.mark.parametrize("rect, what", [(NO_STEP, "time step"), (NO_NODE, "grid node")],
                         ids=["no-step", "no-node"])
def test_empty_region_is_rejected_before_any_path_runs(grid32, monkeypatch, rect, what):
    calls = []
    monkeypatch.setattr(montecarlo, "integrate_batch", lambda *a, **k: calls.append(a))
    spec = ExperimentSpec(grid=grid32, horizon=0.25, n_paths=4,
                          regions={"Q": Q_RECT, "P": rect})
    with pytest.raises(EmptyRegionError, match=f"owns no {what}"):
        run_ensemble(spec)
    with pytest.raises(EmptyRegionError, match=f"owns no {what}"):
        comparison_experiment(grid32, rect, Q_RECT, n_data=2, horizon=0.25)
    assert calls == []
    path = FieldPath(grid32, np.arange(33) / 128, np.ones((33, grid32.size)))
    with pytest.raises(EmptyRegionError, match=f"owns no {what}"):
        sup_on(path, rect)


def test_ensemble_bookkeeping():
    ens = synthetic_ensemble([1.0] * 200, [0.5] * 200)
    assert ens.n_paths == 200 and ens.n_ok == 200
    assert not ens.invalid
    ens.failed[:2] = True
    assert ens.n_ok == 198 and not ens.invalid     # 2/200 is at the limit
    ens.failed[2] = True
    assert ens.invalid                             # 3/200 crosses it
    with pytest.raises(InvalidArgumentError):
        ens.sup_over(SpaceTimeRect(0.0, 0.1, Ball((0.5,), 0.25)))


def test_wilson_interval_quadratic_oracle():
    # Wilson endpoints are the roots of (p_hat - p)^2 = z^2 p(1-p)/n
    z = 1.96
    for hits, trials in [(0, 100), (3, 100), (50, 100), (97, 100), (1, 2000)]:
        p_hat = hits / trials
        a = 1.0 + z * z / trials
        b = -(2.0 * p_hat + z * z / trials)
        c = p_hat * p_hat
        roots = np.sort(np.roots([a, b, c]).real)
        lo, hi = wilson_interval(hits, trials)
        assert lo == pytest.approx(max(roots[0], 0.0), abs=1e-12)
        assert hi == pytest.approx(min(roots[1], 1.0), abs=1e-12)
        assert 0.0 <= lo <= p_hat <= hi <= 1.0
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InvalidArgumentError):
        wilson_interval(5, 0)
    with pytest.raises(InvalidArgumentError):
        wilson_interval(7, 5)


def test_wilson_interval_coverage(rng):
    # nominal 95%: empirical coverage over many Bernoulli experiments
    # should land close to that
    p_true, n = 0.3, 40
    hits = rng.binomial(n, p_true, size=1000)
    covered = 0
    for h in hits:
        lo, hi = wilson_interval(int(h), n)
        covered += lo <= p_true <= hi
    assert 0.90 <= covered / 1000 <= 0.99


def test_validate_windows_names_the_rule():
    with pytest.raises(GeometryError, match="violated rule"):
        validate_windows(P_RECT, SpaceTimeRect(0.0, 0.1, Ball((0.0,), 1.0)))
    with pytest.raises(GeometryError, match="violated rule"):
        validate_windows(Q_RECT, P_RECT)   # inf window before sup window ends


def test_harnack_indicators_algebra():
    ens = synthetic_ensemble([2.0, 0.5, 3.0, 1.5], [1.0, 0.2, -0.1, 0.6])
    ind = montecarlo._harnack_indicators(ens, P_RECT, Q_RECT, a=1.0, gammas=[1.0, 2.0, 4.0])
    want = np.array([[True, False, False],
                     [False, False, False],
                     [True, True, True],
                     [True, False, False]])
    assert np.array_equal(ind, want)


def test_harnack_curve_estimates():
    ens = synthetic_ensemble([2.0, 0.5, 3.0, 1.5], [1.0, 0.2, -0.1, 0.6])
    curve = harnack_curve(ens, P_RECT, Q_RECT, a=1.0, gammas=[1.0, 2.0, 4.0])
    assert [g for g, _ in curve] == [1.0, 2.0, 4.0]
    assert [e.hits for _, e in curve] == [3, 1, 1]
    for _, e in curve:
        assert e.trials == 4
        assert e.p_hat == pytest.approx(e.hits / 4)
        assert (e.ci_lo, e.ci_hi) == wilson_interval(e.hits, 4)


def test_harnack_curve_equals_joint_tail_over_ok_paths():
    # path 4 failed with NaN extrema; path 5 failed with finite extrema that
    # would be a hit at every gamma, so only the failure roster excludes it
    failed = [False] * 4 + [True, True]
    ens = synthetic_ensemble([2.0, 0.5, 3.0, 1.5, np.nan, 5.0],
                             [1.0, 0.2, -0.1, 0.6, np.nan, 0.0], failed=failed)
    a, gammas = 1.0, [1.0, 2.0, 4.0]
    curve = harnack_curve(ens, P_RECT, Q_RECT, a, gammas)
    assert [g for g, _ in curve] == gammas
    supq, infp = ens.sup_over(Q_RECT), ens.inf_over(P_RECT)
    for g, est in curve:
        assert est.trials == ens.n_ok == 4
        assert (est.hits, est.trials) == joint_tail(ens, supq > a, g * infp <= a)
        assert est.p_hat == est.hits / est.trials
        assert (est.ci_lo, est.ci_hi) == wilson_interval(est.hits, est.trials)
    dead = synthetic_ensemble([1.0], [1.0], failed=[True])
    with pytest.raises(InsufficientDataError, match="every path failed"):
        harnack_curve(dead, P_RECT, Q_RECT, a, gammas)


def test_indicator_monotonicity_counts_upward_flips():
    ens = synthetic_ensemble([2.0, 0.5, 3.0, 1.5], [1.0, 0.2, -0.1, 0.6])
    assert indicator_monotonicity(ens, P_RECT, Q_RECT, 1.0, [1.0, 2.0, 4.0]) == 0
    # a negative infimum with a negative threshold flips an indicator on
    # as gamma grows, which is exactly what the count is for
    bad = synthetic_ensemble([0.0], [-0.5])
    assert indicator_monotonicity(bad, P_RECT, Q_RECT, -1.0, [1.0, 4.0]) == 1


def test_median_sup():
    ens = synthetic_ensemble([3.0, 1.0, 2.0, 9.0], failed=[False] * 3 + [True],
                             infp=[1.0] * 4)
    assert median_sup(ens, Q_RECT) == pytest.approx(2.0)
    dead = synthetic_ensemble([1.0], [1.0], failed=[True])
    with pytest.raises(InsufficientDataError):
        median_sup(dead, Q_RECT)


def test_positivity_scan(region_spec, region_ensemble):
    report = positivity_scan(region_ensemble, BOX, floor=0.0)
    assert report.n_at_or_below == 0
    assert report.n_failed == 0
    assert report.mins.size == 12
    vol = region_spec.grid.cell_volume()
    u0 = region_spec.build()[1].flat()
    assert report.initial_energy == pytest.approx(vol * float(np.sum(u0 * u0)))
    assert 0.0 <= report.worst_neg_energy < 1e-10 * report.initial_energy
    # an unreachable floor flips the verdict
    high = positivity_scan(region_ensemble, BOX, floor=float(np.max(report.mins)))
    assert high.n_at_or_below > 0
    for floor in (-1.0, np.nan, np.inf):
        with pytest.raises(InvalidArgumentError, match="floor"):
            positivity_scan(region_ensemble, BOX, floor=floor)


def test_comparison_experiment_small():
    report = comparison_experiment(Grid.regular(1, 16), P_RECT, Q_RECT,
                                   n_data=4, seed=3, horizon=0.3)
    assert report.ratios.shape == (4,)
    assert np.all(np.isfinite(report.ratios))
    assert np.all(report.ratios > 0.0)
    assert np.all(np.isfinite(report.ratios_refined))
    assert report.max_ratio == pytest.approx(float(np.max(report.ratios)))
    got = report.relative_change
    want = abs(report.max_ratio_refined - report.max_ratio) / report.max_ratio
    assert got == pytest.approx(want)


def test_filter_lemma_check_validation():
    with pytest.raises(InvalidArgumentError):
        filter_lemma_check(np.zeros((4, 3)), K=0.0, N=1.0, b=1.0)
    with pytest.raises(InvalidArgumentError):
        filter_lemma_check(np.zeros((4, 2)), K=1.0, N=1.0, b=1.0)
    bad = np.array([[1.0, 0.5, 1.0],     # Y < K*Z at index 0
                    [1.0, 2.0, 1.0]])
    with pytest.raises(InvalidArgumentError, match=r"\[0\]"):
        filter_lemma_check(bad, K=1.0, N=1.0, b=1.0)
    neg = np.array([[1.0, 1.0, -0.1]])
    with pytest.raises(InvalidArgumentError):
        filter_lemma_check(neg, K=1.0, N=1.0, b=1.0)
    # a non-finite entry fails the precondition wherever it sits
    nonfinite = np.array([[np.nan, 1.0, 0.5], [2.0, np.nan, 0.1], [np.inf, 1.0, 0.0],
                          [1.0, np.inf, 0.5], [1.0, 2.0, 1.0]])
    with pytest.raises(InvalidArgumentError, match=r"\[0, 1, 2, 3\]"):
        filter_lemma_check(nonfinite, K=1.0, N=1.0, b=1.0)
    for K, N, b in ((np.nan, 1.0, 1.0), (1.0, np.inf, 1.0), (1.0, 1.0, np.nan)):
        with pytest.raises(InvalidArgumentError):
            filter_lemma_check(np.zeros((4, 3)), K=K, N=N, b=b)


def test_filter_lemma_holds_on_random_samples(rng):
    K, N, b = 2.0, 3.0, 1.5
    n = 20000
    Z = rng.exponential(0.4, n)
    Y = K * Z + rng.exponential(0.4, n)     # guarantees Y >= K*Z >= 0
    X = rng.exponential(1.0, n)
    samples = np.column_stack([X, Y, Z])
    assert filter_lemma_check(samples, K, N, b) == 0


def test_positivity_scan_builds_no_model(monkeypatch, region_ensemble):
    # the scan reads the initial condition only; the model was built and
    # spot-checked before the run
    calls = []
    for name in ("build_model", "validate_model"):
        def counted(*args, _fn=getattr(montecarlo, name), **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(montecarlo, name, counted)
    rep = positivity_scan(region_ensemble, BOX)
    assert calls == []
    assert rep.mins.size == 12 and rep.initial_energy > 0.0


def test_failed_paths_reach_no_consumer():
    # the cubic drift blows every path up well before the horizon
    model = ModelParams(f_kind="expr", f_expr="u*u*u", g_kind="zero", m=0,
                        growth_bound=1000.0)
    spec = ExperimentSpec(grid=Grid.regular(1, 32), model=model, ic_amplitude=50.0,
                          horizon=0.5, n_paths=4, chunk=2, regions={"box": BOX})
    seen = []
    ens = run_ensemble(spec, consumers=[lambda i, fp: seen.append(i)])
    assert seen == []
    assert np.all(ens.failed) and np.all(ens.fail_steps >= 0)
    for values in (ens.sup["box"], ens.inf["box"], ens.neg_energy):
        assert np.all(np.isnan(values))


def test_build_checks_the_model_once_for_its_inputs(monkeypatch):
    # 1 + t/2 leaves [0.5, 2] after t = 2: a spec made by dataclasses.replace
    # carries the checked model, which serves only the horizon it was checked over
    calls = []

    def counted(*args, _fn=montecarlo.validate_model, **kwargs):
        calls.append(1)
        return _fn(*args, **kwargs)
    monkeypatch.setattr(montecarlo, "validate_model", counted)
    model = ModelParams(a_kind="expr", a_expr="1 + 0.5*t", iota=0.5)
    spec = ExperimentSpec(grid=Grid.regular(1, 16), model=model, horizon=1.0, n_paths=1)
    cm = spec.build()[0]
    assert spec.build()[0] is cm and dataclasses.replace(spec, n_paths=2).build()[0] is cm
    assert len(calls) == 1
    with pytest.raises(ModelInvalidError, match="ellipticity violated"):
        dataclasses.replace(spec, horizon=4.0).build()
    assert len(calls) == 2
