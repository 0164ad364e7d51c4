import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurodiff import autodiff as ad
from neurodiff import losses, presets, solver
from neurodiff.callbacks import (Action, AfterEpoch, Always, Callback,
                                 EarlyStop, SetBatchSize, SetLearningRate,
                                 SetLoss, SetTrainGenerator)
from neurodiff.conditions import (IVP1, DirichletNeumann, NeumannDirichlet,
                                  NeumannNeumann, NoCondition)
from neurodiff.generators import Generator, Meshed, Uniform1D
from neurodiff.losses import LossSpec
from neurodiff.network import MLP, MLPSpec
from neurodiff.generators import make_rng
from neurodiff.operators import SingularityError
from neurodiff.solver import (Adam, BundleLayout, Problem, SGD, Solution,
                              SolverConfig, SolverState, TrainingDiverged,
                              _build_loss, _sample_batch, _train_batch, fit,
                              fit_inverse, get_solution)


def decay_residual(u, coords):
    t, = coords
    return [ad.diff(u[0], t) + u[0]]


def decay_problem(n=64):
    return Problem(decay_residual, 1, ("t",),
                   Uniform1D(0.0, 2.0, n),
                   Uniform1D(0.0, 2.0, n, "equally-spaced"))


def small_config(epochs=5, seed=0, **kw):
    return SolverConfig(networks=[MLPSpec(1, (8,), 1, seed=seed)],
                        conditions=[IVP1(0.0, 1.0)],
                        optimizer=Adam(lr=1e-3),
                        epochs=epochs, seed=seed, **kw)


class TestFit:
    def test_missing_conditions_raise(self):
        # SolverConfig's conditions default to None
        cfg = SolverConfig(networks=[MLPSpec(1, (8,), 1)], epochs=1)
        with pytest.raises(ValueError, match=r"^one condition per unknown is "
                                             r"required, got None for 1 "):
            fit(decay_problem(), cfg)

    def test_metrics_one_row_per_epoch(self):
        state = fit(decay_problem(), small_config(epochs=7))
        assert len(state.metrics) == 7
        assert state.metrics[0]["epoch"] == 1
        assert state.metrics[-1]["epoch"] == 7
        for row in state.metrics:
            assert row["loss_kind"] == "mse"

    def test_determinism(self):
        a = fit(decay_problem(), small_config(epochs=10))
        b = fit(decay_problem(), small_config(epochs=10))
        assert a.metrics == b.metrics
        assert a.networks[0].flat_params().tobytes() == \
            b.networks[0].flat_params().tobytes()

    def test_seed_changes_trajectory(self):
        a = fit(decay_problem(), small_config(epochs=5, seed=0))
        b = fit(decay_problem(), small_config(epochs=5, seed=1))
        assert a.metrics != b.metrics

    def test_validation_does_not_affect_training(self):
        p1 = decay_problem()
        p2 = Problem(decay_residual, 1, ("t",),
                     Uniform1D(0.0, 2.0, 64),
                     Uniform1D(0.0, 2.0, 17))  # different validation set
        a = fit(p1, small_config(epochs=8))
        b = fit(p2, small_config(epochs=8))
        assert a.networks[0].flat_params().tobytes() == \
            b.networks[0].flat_params().tobytes()
        assert [m["train_loss"] for m in a.metrics] == \
            [m["train_loss"] for m in b.metrics]

    def test_training_reduces_loss(self):
        state = fit(decay_problem(256), small_config(epochs=200))
        assert state.valid_history[-1] < state.valid_history[0]

    def test_accumulation_matches_single_pass(self):
        a = fit(decay_problem(64), small_config(epochs=5))
        b = fit(decay_problem(64), small_config(epochs=5,
                                                accumulation_passes=4))
        np.testing.assert_allclose(a.networks[0].flat_params(),
                                   b.networks[0].flat_params(),
                                   rtol=0, atol=1e-12)

    def test_sgd_optimizer_runs(self):
        cfg = small_config(epochs=5)
        cfg.optimizer = SGD(lr=1e-3, momentum=0.9)
        state = fit(decay_problem(), cfg)
        assert len(state.metrics) == 5

    def test_default_networks(self):
        cfg = SolverConfig(conditions=[IVP1(0.0, 1.0)], epochs=2)
        state = fit(decay_problem(), cfg)
        assert state.networks[0].spec.hidden_dims == (32, 32)

    def test_condition_count_mismatch(self):
        cfg = small_config()
        cfg.conditions = []
        with pytest.raises(ValueError, match="condition"):
            fit(decay_problem(), cfg)

    def test_divergence_raises(self):
        def exploding(u, coords):
            t, = coords
            return [ad.exp(1e4 * u[0]) + ad.diff(u[0], t)]

        p = Problem(exploding, 1, ("t",), Uniform1D(0.0, 2.0, 16),
                    Uniform1D(0.0, 2.0, 16))
        cfg = small_config(epochs=50)
        cfg.optimizer = Adam(lr=10.0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged,
                                                      match="non-finite"):
            fit(p, cfg)

    @pytest.mark.parametrize("name, value", [
        ("epochs", -1), ("batches_per_epoch", 0), ("batches_per_epoch", -1),
        ("accumulation_passes", 0), ("accumulation_passes", -2)])
    def test_out_of_range_count_raises(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be >= "):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("epochs", 1.5), ("epochs", 2.0), ("epochs", True),
        ("batches_per_epoch", 2.0), ("accumulation_passes", 1.5),
        ("accumulation_passes", "2")])
    def test_non_integer_count_raises(self, name, value):
        with pytest.raises(ValueError,
                           match=f"^{name} must be an integer, got "):
            SolverConfig(**{name: value})

    def test_numpy_integer_counts_train(self):
        counts = {"epochs": 2, "batches_per_epoch": 2, "accumulation_passes": 2}
        state = fit(decay_problem(), small_config(**counts))
        numpy = fit(decay_problem(), small_config(
            **{k: np.int64(v) for k, v in counts.items()}))
        assert numpy.train_history == state.train_history

    def test_zero_epochs_train_nothing(self):
        state = fit(decay_problem(), small_config(epochs=0))
        assert state.epoch == 0 and state.metrics == []

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, "3", True])
    def test_a_seed_that_cannot_key_a_stream_raises(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer in "
                                             r"\[0, 2\*\*64\), got "):
            SolverConfig(seed=seed)

    def test_the_largest_seed_trains(self):
        state = fit(decay_problem(), small_config(epochs=2, seed=2 ** 64 - 1))
        assert np.isfinite(state.valid_history).all()

    def test_one_philox_keys_every_stream_of_a_fit(self, monkeypatch):
        cfg = small_config(epochs=3, batches_per_epoch=5)
        state = SolverState(decay_problem(), cfg)
        made, philox = [0], np.random.Philox

        def counted(*args, **kwargs):
            made[0] += 1
            return philox(*args, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(np.random, "Philox", counted)
            fit(decay_problem(), cfg, state=state)
        # one per training batch and validation pass was 18
        assert made[0] == 1


class TestOptimizerSettings:
    @pytest.mark.parametrize("make, field", [
        (lambda: Adam(lr=-1), "lr"), (lambda: Adam(lr=0), "lr"),
        (lambda: Adam(lr=float("nan")), "lr"),
        (lambda: Adam(lr=float("inf")), "lr"),
        (lambda: Adam(beta1=1.5), "beta1"), (lambda: Adam(beta1=1), "beta1"),
        (lambda: Adam(beta1=-0.1), "beta1"),
        (lambda: Adam(beta2=float("nan")), "beta2"),
        (lambda: Adam(eps=0), "eps"), (lambda: Adam(eps="1e-8"), "eps"),
        (lambda: SGD(lr=float("nan")), "lr"), (lambda: SGD(lr=-0.5), "lr"),
        (lambda: SGD(momentum=-2), "momentum"),
        (lambda: SGD(momentum=float("inf")), "momentum"),
        (lambda: SetLearningRate(0), "lr"),
        (lambda: SetLearningRate(float("nan")), "lr"),
    ])
    def test_meaningless_settings_raise_naming_the_field(self, make, field):
        with pytest.raises(ValueError, match=rf"^\w+: {field} must be "):
            make()

    def test_edges_that_mean_something_are_allowed(self):
        Adam(beta1=0, beta2=0)
        SGD(momentum=0)
        SetLearningRate(1e-300)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 6), data=st.data())
def test_resumed_fit_equals_one_fit(n, data):
    k = data.draw(st.integers(1, n - 1), label="k")
    whole = fit(decay_problem(), small_config(epochs=n))
    split = fit(decay_problem(), small_config(epochs=k))
    assert fit(decay_problem(), small_config(epochs=n - k), state=split) is split
    assert split.epoch == n
    assert split.metrics == whole.metrics
    assert split.train_history == whole.train_history
    assert split.valid_history == whole.valid_history
    assert split.best_epoch == whole.best_epoch
    assert split.networks[0].flat_params().tobytes() == \
        whole.networks[0].flat_params().tobytes()


class TestResumeArguments:
    """A resumed fit trains the state's problem and layout; it refuses
    others rather than ignore them."""

    OTHER = {
        "residual": lambda p: Problem(lambda u, coords: [u[0]], 1,
                                      p.coord_names, p.train_generator,
                                      p.valid_generator),
        "n_unknowns": lambda p: dataclasses.replace(p, n_unknowns=2),
        "coord_names": lambda p: dataclasses.replace(p, coord_names=("s",)),
    }

    @pytest.mark.parametrize("field", sorted(OTHER))
    def test_another_problem_raises_naming_the_field(self, field):
        state = fit(decay_problem(), small_config(epochs=1))
        before = state._params.copy()
        with pytest.raises(ValueError,
                           match=rf"the given problem's {field} is not"):
            fit(self.OTHER[field](decay_problem()), small_config(epochs=1),
                state=state)
        assert state.epoch == 1
        assert state._params.tobytes() == before.tobytes()

    @pytest.mark.parametrize("field, other", [
        ("optimizer", Adam(lr=2e-3)), ("optimizer", Adam(beta2=0.99)),
        ("optimizer", SGD(lr=1e-3)), ("accumulation_passes", 2)])
    def test_another_optimizer_or_accumulation_raises_naming_it(
            self, field, other):
        state = fit(decay_problem(), small_config(epochs=1))
        before = state._params.copy()
        cfg = dataclasses.replace(small_config(epochs=1), **{field: other})
        with pytest.raises(ValueError, match=rf"keeps the state's {field}: "
                                             r"the given config's"):
            fit(decay_problem(), cfg, state=state)
        assert state.epoch == 1
        assert state._params.tobytes() == before.tobytes()
        # a rebuilt but equal optimizer resumes
        fit(decay_problem(), small_config(epochs=1), state=state)
        assert state.epoch == 2

    def test_another_layout_raises(self):
        cfg = SolverConfig(networks=[MLPSpec(2, (8,), 1, seed=0)],
                           conditions=[IVP1(0.0, "u0")], epochs=1)
        state = fit(bundle_problem(), cfg, layout=bundle_layout())
        problem = state.problem
        for other in (BundleLayout(theta_ic={"u0": (1.0, 1.5)}),
                      BundleLayout(theta_ic={"u0": (0.5, 1.5)},
                                   sampling="arcsine")):
            with pytest.raises(ValueError, match="the given layout .* is not "
                               "the state's"):
                fit(problem, cfg, layout=other, state=state)
        # a decay state has no layout
        decay = fit(decay_problem(), small_config(epochs=1))
        with pytest.raises(ValueError, match="the given layout"):
            fit(decay_problem(), small_config(epochs=1),
                layout=bundle_layout(), state=decay)
        assert (state.epoch, decay.epoch) == (1, 1)

    def test_an_equal_layout_or_none_resumes(self):
        cfg = SolverConfig(networks=[MLPSpec(2, (8,), 1, seed=0)],
                           conditions=[IVP1(0.0, "u0")], epochs=1)
        state = fit(bundle_problem(), cfg, layout=bundle_layout())
        fit(state.problem, cfg, layout=bundle_layout(), state=state)
        fit(state.problem, cfg, state=state)
        assert state.epoch == 3
        whole = fit(bundle_problem(), dataclasses.replace(cfg, epochs=3),
                    layout=bundle_layout())
        assert trained(state) == trained(whole)


def adam_textbook(opt, params, steps):
    """Adam from zero moments, each step a new array."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(steps, 1):
        m = [opt.beta1 * mi + (1 - opt.beta1) * g for mi, g in zip(m, grads)]
        v = [opt.beta2 * vi + (1 - opt.beta2) * g * g
             for vi, g in zip(v, grads)]
        params = [p - opt.lr * (mi / (1 - opt.beta1 ** t))
                  / (np.sqrt(vi / (1 - opt.beta2 ** t)) + opt.eps)
                  for p, mi, vi in zip(params, m, v)]
    return params


def sgd_textbook(opt, params, steps):
    """SGD with momentum from a zero velocity, each step a new array."""
    v = [np.zeros_like(p) for p in params]
    for grads in steps:
        v = [opt.momentum * vi + g for vi, g in zip(v, grads)]
        params = [p - opt.lr * vi for p, vi in zip(params, v)]
    return params


def assert_views_of_one_vector(state):
    """Every parameter array is a view of one vector, which they tile in
    ``_param_arrays`` order."""
    arrays = [a for _, _, a in solver._parameters(state)]
    assert all(a.base is state._params for a in arrays)
    assert np.concatenate([a.ravel() for a in arrays]).tobytes() == \
        state._params.tobytes()
    assert sum(a.size for a in arrays) == state._params.size
    addresses = [a.__array_interface__["data"][0] for a in arrays]
    assert addresses == sorted(set(addresses))


class TestInPlaceOptimizer:
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("opt, textbook", [
        (Adam(lr=0.01, beta1=0.8, beta2=0.99, eps=1e-6), adam_textbook),
        (SGD(lr=0.01, momentum=0.9), sgd_textbook)])
    def test_steps_equal_the_textbook_update(self, opt, textbook, precision):
        cfg = small_config(precision=precision)
        cfg.optimizer = opt
        state = SolverState(decay_problem(), cfg)
        start = [p.copy() for p in solver._param_arrays(state)]
        rng = np.random.default_rng(0)
        steps = [[rng.normal(size=p.shape).astype(p.dtype) for p in start]
                 for _ in range(4)]
        for grads in steps:
            solver._optimizer_step(state, [g.copy() for g in grads])
        expected = textbook(opt, start, steps)
        got = solver._param_arrays(state)
        assert [p.dtype for p in got] == [p.dtype for p in expected]
        assert [p.tobytes() for p in got] == [p.tobytes() for p in expected]

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_parameters_stay_views_of_one_vector(self, precision):
        cfg = SolverConfig(networks=[MLPSpec(1, (8, 6), 1, seed=1),
                                     MLPSpec(1, (5,), 1, seed=2)],
                           conditions=[IVP1(0.0, 1.0), IVP1(0.0, 0.5)],
                           epochs=2, precision=precision)

        def residual(u, coords):
            t, = coords
            return [ad.diff(u[0], t) + u[1], ad.diff(u[1], t) - u[0]]
        problem = Problem(residual, 2, ("t",), Uniform1D(0.0, 2.0, 16),
                          Uniform1D(0.0, 2.0, 16, "equally-spaced"))
        state = SolverState(problem, cfg)
        assert state._params.dtype == solver._DTYPES[precision]
        assert_views_of_one_vector(state)
        fit(problem, cfg, state=state)
        assert_views_of_one_vector(state)
        fit(problem, cfg, state=state)
        assert_views_of_one_vector(state)
        assert state.epoch == 4

    def test_fit_trains_the_network_arrays_in_place(self):
        cfg = small_config(epochs=3)
        state = SolverState(decay_problem(), cfg)
        arrays = [a for net in state.networks for a in net.weights + net.biases]
        before = [a.copy() for a in arrays]
        assert fit(decay_problem(), cfg, state=state) is state
        after = [a for net in state.networks for a in net.weights + net.biases]
        assert len(after) == len(arrays)
        assert all(a is b for a, b in zip(after, arrays))
        assert all((a != b).any() for a, b in zip(arrays, before))

    def test_copies_stay_unchanged_through_a_resumed_fit(self):
        state = fit(decay_problem(), small_config(epochs=3))
        best = state.best_networks
        best_bytes = [n.flat_params().tobytes() for n in best]
        t = np.linspace(0.0, 2.0, 9)
        solutions = {s: get_solution(state, s) for s in ("best", "latest")}
        values = {s: sol(t).tobytes() for s, sol in solutions.items()}
        fit(decay_problem(), small_config(epochs=3), state=state)
        assert [n.flat_params().tobytes() for n in best] == best_bytes
        for s, sol in solutions.items():
            assert sol(t).tobytes() == values[s]
        assert get_solution(state, "latest")(t).tobytes() != values["latest"]


def _fit_preset(name):
    """Three epochs of a built-in preset as the benchmark trains it: the
    bytes of its weights and biases and of its loss histories, and the
    programs it recorded."""
    preset = presets.get(name)
    cfg = SolverConfig(
        networks=preset.network_specs(preset.hidden, preset.activation, 1),
        conditions=preset.conditions, optimizer=Adam(lr=preset.lr),
        loss=LossSpec("mse"), epochs=3,
        batches_per_epoch=preset.batches_per_epoch, seed=1)
    programs, record = [], ad._record

    def recording(*args):
        programs.append(record(*args))
        return programs[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "_record", recording)
        state = fit(preset.problem(preset.batch), cfg, layout=preset.layout)
    params = [a.tobytes() for net in state.networks
              for a in net.weights + net.biases]
    histories = np.asarray(state.train_history + state.valid_history)
    return (params, histories.tobytes()), programs


# poisson-gaussian's programs hold guards and columns
@pytest.mark.parametrize("name", ["decay", "sho-bundle", "poisson-gaussian"])
def test_training_is_the_same_without_writing_into_dying_arguments(
        name, monkeypatch):
    with_into, programs = _fit_preset(name)
    assert programs and all(p.rewrites["into"] > 0 for p in programs)
    monkeypatch.setattr(ad, "_INTO", {})
    without_into, programs = _fit_preset(name)
    assert programs and all(p.rewrites["into"] == 0 for p in programs)
    assert with_into == without_into


class TestExactness:
    def test_condition_holds_from_epoch_zero(self):
        # the trial solution satisfies u(0) = 1 before any training
        state = fit(decay_problem(), small_config(epochs=1))
        sol = get_solution(state, "latest")
        assert sol(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-14)

    def test_condition_still_exact_after_training(self):
        state = fit(decay_problem(), small_config(epochs=50))
        sol = get_solution(state, "latest")
        assert sol(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-14)


class TestCallbacksIntegration:
    def test_early_stop(self):
        cbs = [Callback(AfterEpoch(3), EarlyStop())]
        state = fit(decay_problem(), small_config(epochs=100), cbs)
        assert state.epoch == 4
        assert len(state.metrics) == 4

    def test_loss_switch_takes_effect_next_epoch(self):
        cbs = [Callback(AfterEpoch(2), SetLoss(LossSpec("l1")))]
        state = fit(decay_problem(), small_config(epochs=5), cbs)
        kinds = [m["loss_kind"] for m in state.metrics]
        assert kinds == ["mse", "mse", "mse", "l1", "l1"]

    def test_always_fires_every_epoch(self):
        fired = []

        class Recorder:
            def apply(self, state):
                fired.append(state.epoch)

        cbs = [Callback(Always(), Recorder())]
        fit(decay_problem(), small_config(epochs=4), cbs)
        assert fired == [1, 2, 3, 4]


class TestSolution:
    def test_get_solution_best_vs_latest(self):
        state = fit(decay_problem(256), small_config(epochs=100))
        best = get_solution(state, "best")
        latest = get_solution(state, "latest")
        t = np.linspace(0, 2, 50)
        assert best(t).shape == (50,)
        assert latest(t).shape == (50,)

    def test_best_snapshot_is_from_best_epoch(self):
        state = fit(decay_problem(256), small_config(epochs=50))
        assert 1 <= state.best_epoch <= 50
        assert state.best_loss == min(state.valid_history)

    def test_unknown_strategy(self):
        state = fit(decay_problem(), small_config(epochs=1))
        with pytest.raises(ValueError, match="unknown strategy"):
            get_solution(state, "median")

    def test_solution_is_frozen_copy(self):
        state = fit(decay_problem(), small_config(epochs=1))
        sol = get_solution(state, "latest")
        before = sol(np.array([1.0]))[0]
        state.networks[0].weights[0][:] = 0.0
        assert sol(np.array([1.0]))[0] == before

    def test_wrong_arity_rejected(self):
        state = fit(decay_problem(), small_config(epochs=1))
        sol = get_solution(state, "latest")
        with pytest.raises(ValueError, match="expected 1"):
            sol(np.zeros(3), np.zeros(3))


def bundle_problem(n=64):
    def residual(u, coords, params):
        t, = coords
        return [ad.diff(u[0], t) + u[0]]

    return Problem(residual, 1, ("t",), Uniform1D(0.0, 1.0, n),
                   Uniform1D(0.0, 1.0, n, "equally-spaced"))


def bundle_layout():
    return BundleLayout(theta_ic={"u0": (0.5, 1.5)})


class TestBundle:
    def cfg(self, epochs=3):
        return SolverConfig(networks=[MLPSpec(2, (8,), 1, seed=0)],
                            conditions=[IVP1(0.0, "u0")],
                            epochs=epochs, seed=0)

    def test_fit_bundle_runs_and_condition_exact(self):
        state = fit(bundle_problem(), self.cfg(), layout=bundle_layout())
        sol = get_solution(state, "latest")
        out = sol(np.array([0.0]), u0=np.array([0.77]))
        assert out[0] == pytest.approx(0.77, abs=1e-14)

    def test_theta_by_position_or_name(self):
        state = fit(bundle_problem(), self.cfg(), layout=bundle_layout())
        sol = get_solution(state, "latest")
        t = np.array([0.3, 0.6])
        u0 = np.array([1.0, 1.2])
        np.testing.assert_array_equal(sol(t, u0), sol(t, u0=u0))

    def test_unknown_theta_name(self):
        state = fit(bundle_problem(), self.cfg(), layout=bundle_layout())
        sol = get_solution(state, "latest")
        with pytest.raises(ValueError, match="unknown parameters"):
            sol(np.array([0.0]), lam=np.array([1.0]))

    def test_missing_coordinate_is_named(self):
        state = fit(bundle_problem(), self.cfg(), layout=bundle_layout())
        sol = get_solution(state, "latest")
        with pytest.raises(ValueError, match=r"missing coordinates \['t'\]"):
            sol(u0=np.array([0.77]))
        sho = presets.get("sho-bundle")
        nets = [MLP.init(s) for s in sho.network_specs((8,), "tanh", 0)]
        sol = Solution(nets, sho.conditions, sho.coord_names, sho.layout)
        with pytest.raises(ValueError, match=r"missing coordinates \['t'\]"):
            sol(u0=np.array([1.0]), du0=np.array([0.0]))

    def test_input_dim_check(self):
        cfg = self.cfg()
        cfg.networks = [MLPSpec(5, (8,), 1, seed=0)]
        with pytest.raises(ValueError, match="input_dim"):
            fit(bundle_problem(), cfg, layout=bundle_layout())

    @pytest.mark.parametrize("cond, pins", [
        (NeumannNeumann(0.0, "a", 1.0, "b"), ((1, 0.0, "a"), (1, 1.0, "b"))),
        (DirichletNeumann(0.0, "a", 1.0, "b"), ((0, 0.0, "a"), (1, 1.0, "b"))),
        (NeumannDirichlet(0.0, "a", 1.0, "b"), ((1, 0.0, "a"), (0, 1.0, "b"))),
    ])
    def test_two_point_pins_follow_each_theta_row(self, cond, pins):
        # the boundary point meets every theta row, so each row is pinned
        # to its own parameters, not to the first row's
        def residual(u, coords, params):
            x, = coords
            return [ad.diff(u[0], x, 2) - params["a"]]

        problem = Problem(residual, 1, ("x",), Uniform1D(0.0, 1.0, 32),
                          Uniform1D(0.0, 1.0, 32, "equally-spaced"))
        layout = BundleLayout(theta_eq={"a": (-1.0, 1.0), "b": (-1.0, 1.0)})
        cfg = SolverConfig(networks=[MLPSpec(3, (8,), 1, seed=0)],
                           conditions=[cond], epochs=2, seed=0)
        sol = get_solution(fit(problem, cfg, layout=layout), "latest")
        theta = {"a": np.linspace(-0.9, 0.8, 7),
                 "b": np.linspace(0.7, -0.6, 7)}
        for order, at, name in pins:
            if order == 0:
                got = sol(at, **theta)
            else:
                (u,), cols, _ = solver._trial_solutions(
                    sol, [np.full((1, 1), at), theta["a"].reshape(-1, 1),
                          theta["b"].reshape(-1, 1)])
                got = ad.diff(u, cols[0]).value[:, 0]
            np.testing.assert_allclose(got, theta[name], rtol=0, atol=1e-12)


class TestOneRowBoundary:
    def test_boundary_value_and_slope_run_on_one_row(self):
        net = MLP.init(MLPSpec(1, (8, 8), 1, seed=0))
        sol = Solution([net], [DirichletNeumann(0.0, 1.0, 1.0, 0.5)], ("x",))
        (u,), _, _ = solver._trial_solutions(
            sol, [np.linspace(0.0, 1.0, 64).reshape(-1, 1)])
        assert u.shape == (64, 1)
        matmuls, stack, seen = [], [u], set()
        while stack:
            n = stack.pop()
            if n._id not in seen:
                seen.add(n._id)
                matmuls += [n] if n.op == "matmul" else []
                stack.extend(n.inputs)
        layers = len(net.weights)
        # the interior network on the 64 points, and the boundary network's
        # value and forward tangent on one row, one matmul per layer each
        rows = sorted(n.shape[0] for n in matmuls)
        assert rows == [1] * (2 * layers) + [64] * layers


class TestInverse:
    def make_solution(self):
        # zero network: the trial solution collapses to u(t) = u0 exactly
        net = MLP.init(MLPSpec(2, (4,), 1, seed=0))
        for k in range(len(net.weights)):
            net.weights[k] = np.zeros_like(net.weights[k])
        return Solution([net], [IVP1(0.0, "u0")], ("t",), bundle_layout())

    def test_recovers_parameter(self):
        sol = self.make_solution()
        data = [(t, 0.8) for t in np.linspace(0, 1, 10)]
        theta = fit_inverse(sol, data, {"u0": 1.2}, steps=300, lr=0.1)
        assert theta["u0"] == pytest.approx(0.8, abs=1e-3)

    def test_result_clipped_to_range(self):
        sol = self.make_solution()
        data = [(t, 9.0) for t in np.linspace(0, 1, 5)]
        theta = fit_inverse(sol, data, {"u0": 1.0}, steps=200, lr=0.5)
        assert theta["u0"] == pytest.approx(1.5, abs=1e-9)

    def test_zero_steps_returns_init(self):
        sol = self.make_solution()
        theta = fit_inverse(sol, [(0.5, 0.8)], {"u0": 1.1}, steps=0)
        assert theta["u0"] == 1.1

    @pytest.mark.parametrize("steps", [-5, -1, 2.0, True, "3", None])
    def test_steps_must_be_an_integer_at_least_zero(self, steps):
        sol = self.make_solution()
        with pytest.raises(ValueError, match="steps must be an integer >= 0"):
            fit_inverse(sol, [(0.5, 0.8)], {"u0": 1.1}, steps=steps)

    @pytest.mark.parametrize("lr", [0, 0.0, -1.0, float("nan"),
                                    float("inf"), "0.1", None])
    def test_lr_must_be_finite_and_above_zero(self, lr):
        sol = self.make_solution()
        with pytest.raises(ValueError,
                           match="^fit_inverse: lr must be finite and above 0"):
            fit_inverse(sol, [(0.5, 0.8)], {"u0": 1.1}, steps=1, lr=lr)

    def test_requires_observations_and_layout(self):
        sol = self.make_solution()
        with pytest.raises(ValueError, match="observation"):
            fit_inverse(sol, [], {"u0": 1.0})
        plain = Solution(sol.networks, sol.conditions, ("t",), None)
        with pytest.raises(ValueError, match="bundle"):
            fit_inverse(plain, [(0.0, 1.0)], {"u0": 1.0})
        with pytest.raises(ValueError, match="unknown parameter"):
            fit_inverse(sol, [(0.0, 1.0)], {"beta": 1.0})

    def test_missing_parameters_are_named(self):
        layout = BundleLayout(theta_ic={"u0": (0.5, 1.5)},
                              theta_eq={"lam": (0.5, 2.0), "k": (0.0, 1.0)})
        net = MLP.init(MLPSpec(3, (4,), 1, seed=0))
        sol = Solution([net], [IVP1(0.0, "u0")], ("t",), layout)
        with pytest.raises(ValueError,
                           match=r"missing parameters \['lam', 'k'\]"):
            fit_inverse(sol, [(0.0, 1.0)], {"u0": 1.0})


class TestMallocThresholds:
    def test_fit_runs_where_mallopt_is_missing(self, monkeypatch):
        def no_libc(name):
            raise OSError("no C library")
        monkeypatch.setattr(solver.ctypes, "CDLL", no_libc)
        state = fit(decay_problem(), small_config(epochs=2))
        assert [m["epoch"] for m in state.metrics] == [1, 2]


class TestPrunedParameterGradients:
    def test_heat_loss_gradient_ignores_extra_coordinate_targets(self):
        preset = presets.get("heat", dim=2)
        coords = []

        def residual(u, coord_nodes):
            coords.extend(coord_nodes)
            return preset.residual(u, coord_nodes)

        problem = Problem(residual, 1, preset.coord_names,
                          preset.train_gen(64), preset.valid_gen(64))
        cfg = SolverConfig(networks=preset.network_specs((8, 8), "tanh", 0),
                           conditions=preset.conditions, epochs=1, seed=0)
        state = SolverState(problem, cfg)
        batch = _sample_batch(state, make_rng(0, stream=2),
                              state.train_generator)
        pnodes = [net.param_nodes() for net in state.networks]
        params = [p for nodes in pnodes for p in nodes]
        cols = [batch[:, d:d + 1] for d in range(batch.shape[1])]
        loss, _ = _build_loss(state, cols, pnodes)
        assert len(coords) == 3
        only = ad.backward(loss, params)
        with_coords = ad.backward(loss, params + coords)
        for a, b in zip(only, with_coords):
            assert a.value.tobytes() == b.value.tobytes()


class TestForwardResidualDerivatives:
    def test_heat_d3_training_step_runs_one_reverse_pass(self, monkeypatch):
        preset = presets.get("heat", dim=3)
        problem = Problem(preset.residual, 1, preset.coord_names,
                          preset.train_gen(32), preset.valid_gen(32))
        cfg = SolverConfig(networks=preset.network_specs((8, 8), "tanh", 0),
                           conditions=preset.conditions, epochs=1, seed=0)
        state = SolverState(problem, cfg)
        batch = _sample_batch(state, make_rng(0, stream=2),
                              state.train_generator)
        calls = []
        backward = ad.backward

        def counting(output, wrt):
            calls.append(len(wrt))
            return backward(output, wrt)
        monkeypatch.setattr(ad, "backward", counting)
        assert np.isfinite(_train_batch(state, batch))
        # only the parameter gradient: a weight and a bias per layer, in
        # each of the two probe graphs that record the step
        assert calls == [6, 6]


class TestSinglePrecision:
    def test_f32_sho_fit_has_finite_losses(self):
        preset = presets.get("sho")
        cfg = SolverConfig(
            networks=preset.network_specs((16, 16), "tanh", 0),
            conditions=preset.conditions, optimizer=Adam(lr=1e-3),
            epochs=5, seed=0, precision="f32")
        state = fit(preset.problem(64), cfg)
        assert state.networks[0].weights[0].dtype == np.float32
        assert len(state.metrics) == 5
        for row in state.metrics:
            assert np.isfinite(row["train_loss"])
            assert np.isfinite(row["valid_loss"])

    @pytest.mark.parametrize("name",
                             presets.SOLVE_PRESETS + presets.BUNDLE_PRESETS)
    def test_f32_fit_builds_no_float64_node(self, name, monkeypatch):
        preset = presets.get(name)
        cfg = SolverConfig(
            networks=preset.network_specs((8, 8), "tanh", 0),
            conditions=preset.conditions, epochs=2,
            batches_per_epoch=preset.batches_per_epoch, seed=0,
            precision="f32")
        dtypes = set()
        init = ad.Node.__init__

        def recording_init(node, *args, **kwargs):
            init(node, *args, **kwargs)
            dtypes.add(node.value.dtype)
        monkeypatch.setattr(ad.Node, "__init__", recording_init)
        state = fit(preset.problem(16), cfg, layout=preset.layout)
        theta = ({k: (lo + hi) / 2 for k, (lo, hi)
                  in preset.layout.ranges().items()} if preset.layout else {})
        pred = get_solution(state)(*preset.grid, **theta)
        assert dtypes == {np.dtype(np.float32)}
        assert pred.dtype == np.float32
        for net in state.networks:
            assert {a.dtype for a in net.weights + net.biases} == {
                np.dtype(np.float32)}

    @pytest.mark.parametrize("name", ["f16", "F32", "float32", "", None])
    def test_unknown_precision_raises(self, name):
        with pytest.raises(ValueError, match="unknown precision"):
            SolverConfig(precision=name)


# -- recorded steps ---------------------------------------------------------

@contextlib.contextmanager
def graph_path():
    """Every step builds its graph: the recorder records nothing."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ad, "_record", lambda *args, **kwargs: None)
        yield


@contextlib.contextmanager
def counting(name, count):
    """Count the calls of ``ad.<name>`` in ``count``, a one-item list."""
    fn = getattr(ad, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return fn(*args, **kwargs)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ad, name, counted)
        yield


def trained(state):
    """Everything a fit leaves behind, as exact values."""
    arrays = [a for net in state.networks for a in net.weights + net.biases]
    return ([a.dtype for a in arrays], [a.tobytes() for a in arrays],
            state.train_history, state.valid_history)


def preset_fit(name, precision="f64", passes=1, batches=2, batch=10,
               epochs=3, seed=0, callbacks=(), state=None, valid=None,
               kind="mse"):
    """A short fit of preset ``name`` with a loss of ``kind``; ``valid``,
    if given, is a validation generator in place of the preset's."""
    preset = presets.get(name)
    cfg = SolverConfig(
        networks=preset.network_specs((8, 8), "tanh", seed),
        conditions=preset.conditions, optimizer=Adam(lr=preset.lr),
        loss=LossSpec(kind), epochs=epochs, batches_per_epoch=batches,
        accumulation_passes=passes, seed=seed, precision=precision)
    # a resumed fit is given the state's problem and layout: a rebuilt
    # preset's residual is another function
    problem, layout = ((state.problem, state.layout) if state is not None
                       else (preset.problem(batch), preset.layout))
    if valid is not None:
        problem = dataclasses.replace(problem, valid_generator=valid)
    return fit(problem, cfg, callbacks, layout=layout, state=state)


class Fixed(Generator):
    """The same points every time."""

    def __init__(self, pts):
        self.pts = pts

    def sample(self, rng):
        return self.pts.copy()

    def __len__(self):
        return len(self.pts)


ALL_PRESETS = presets.SOLVE_PRESETS + presets.BUNDLE_PRESETS


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(ALL_PRESETS),
       precision=st.sampled_from(["f64", "f32"]),
       passes=st.sampled_from([1, 3]), batches=st.integers(2, 3),
       seed=st.integers(0, 3), kind=st.sampled_from(losses.KINDS))
def test_replayed_fit_equals_graph_path(name, precision, passes, batches,
                                        seed, kind):
    # 10 rows in 3 passes are chunks of 4, 3 and 3: two recordings
    kw = dict(precision=precision, passes=passes, batches=batches, seed=seed,
              kind=kind)
    records = [0]
    with counting("_record", records):
        replayed = preset_fit(name, **kw)
    assert records[0] == (3 if passes == 3 else 2)
    with graph_path():
        built = preset_fit(name, **kw)
    assert trained(replayed) == trained(built)


class TestReplay:
    def test_set_batch_size_records_again(self):
        cbs = [Callback(AfterEpoch(1), SetBatchSize(24))]
        records = [0]
        with counting("_record", records):
            state = fit(decay_problem(), small_config(epochs=4), cbs)
        # train and valid at 64 rows, then train at 24 from epoch 3 on
        assert records[0] == 3
        with graph_path():
            built = fit(decay_problem(), small_config(epochs=4), cbs)
        assert trained(state) == trained(built)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
    def test_a_coefficient_changed_in_place_reaches_the_replay(self):
        # decay reads coef["k"] from outside the graph's inputs, and a
        # callback changes it in place after epoch 2: a recording keeps
        # the k it was made with
        class Stiffen(Action):
            def __init__(self, coef):
                self.coef = coef

            def apply(self, state):
                self.coef["k"] = 3.0

        def run():
            coef = {"k": 1.0}

            def residual(u, coords):
                t, = coords
                return [ad.diff(u[0], t) + coef["k"] * u[0]]
            problem = dataclasses.replace(decay_problem(), residual=residual)
            return fit(problem, small_config(epochs=4),
                       [Callback(AfterEpoch(2), Stiffen(coef))])
        state = run()
        with graph_path():
            built = run()
        assert state.valid_history[:2] == built.valid_history[:2]
        assert trained(state) == trained(built)

    def test_resumed_fit_equals_one_fit(self):
        cbs = [Callback(AfterEpoch(2), SetBatchSize(7))]
        whole = preset_fit("sho-bundle", passes=3, epochs=6, callbacks=cbs)
        split = preset_fit("sho-bundle", passes=3, epochs=2, callbacks=cbs)
        preset_fit("sho-bundle", passes=3, epochs=4, callbacks=cbs,
                   state=split)
        assert trained(split) == trained(whole)
        assert split.metrics == whole.metrics

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_no_node_is_built_after_the_first_epoch(self, name, monkeypatch):
        built = [0]
        init = ad.Node.__init__

        def counting_init(node, *args, **kwargs):
            built[0] += 1
            init(node, *args, **kwargs)
        monkeypatch.setattr(ad.Node, "__init__", counting_init)

        class Count(Action):
            def apply(self, state):
                per_epoch.append(built[0])
        per_epoch = []
        preset_fit(name, passes=3, epochs=4,
                   callbacks=[Callback(Always(), Count())])
        assert per_epoch[0] > 0
        assert per_epoch == [per_epoch[0]] * 4

    def test_f32_replay_gives_f32_gradients(self, monkeypatch):
        outputs = []
        replay = ad._replay

        def keeping(program, values):
            out = replay(program, values)
            outputs.extend(out)
            return out
        monkeypatch.setattr(ad, "_replay", keeping)
        preset_fit("sho-bundle", precision="f32", passes=3)
        assert len(outputs) > 0
        assert {np.asarray(v).dtype for v in outputs} == {np.dtype(np.float32)}

    def _diverging_fit(self):
        def residual(u, coords):
            t, = coords
            return [ad.diff(u[0], t) + u[0] + 1.0 / t]
        problem = Problem(residual, 1, ("t",), Uniform1D(0.1, 2.0, 16),
                          Uniform1D(0.1, 2.0, 16, "equally-spaced"))
        cfg = small_config(epochs=5, batches_per_epoch=2,
                           loss=LossSpec("l1"))
        # from epoch 3 on, t = 0 makes 1/t infinite
        cbs = [Callback(AfterEpoch(1),
                        SetTrainGenerator(Fixed(np.zeros((16, 1)))))]
        with pytest.raises(TrainingDiverged) as info:
            fit(problem, cfg, cbs)
        e = info.value
        return e.epoch, e.batch, e.kind, str(e)

    def test_divergence_on_a_replayed_step_names_epoch_batch_kind(self):
        records = [0]
        with counting("_record", records):
            replayed = self._diverging_fit()
        assert records[0] == 2  # epoch 3's step was replayed
        assert replayed[:3] == (3, 0, "l1")
        with graph_path():
            assert self._diverging_fit() == replayed

    @pytest.mark.parametrize("name", ["sho", "heat"])
    def test_loss_switches_replay_their_data_dependent_factors(self, name):
        # abs and max take sign and argmax masks of each step's residuals
        def run():
            cbs = [Callback(AfterEpoch(1), SetLoss(LossSpec("l1"))),
                   Callback(AfterEpoch(3), SetLoss(LossSpec("linf")))]
            return preset_fit(name, epochs=7, batch=32, callbacks=cbs)
        state = run()
        kinds = [m["loss_kind"] for m in state.metrics]
        assert kinds == ["mse"] * 2 + ["l1"] * 2 + ["linf"] * 3
        with graph_path():
            assert trained(run()) == trained(state)

    def test_singularity_check_runs_on_replayed_steps(self):
        n = 12
        pts = np.column_stack([np.zeros(n), np.full(n, 1.0), np.full(n, 2.0)])
        cbs = [Callback(AfterEpoch(1), SetTrainGenerator(Fixed(pts)))]
        records = [0]
        with counting("_record", records), pytest.raises(SingularityError):
            preset_fit("poisson-gaussian", batch=n, epochs=4, callbacks=cbs)
        assert records[0] == 2  # the r = 0 step was replayed
        with graph_path(), pytest.raises(SingularityError):
            preset_fit("poisson-gaussian", batch=n, epochs=4, callbacks=cbs)


class TestRecordingContract:
    def _frozen_fit(self):
        def residual(u, coords):
            t, = coords
            # t's values as a constant: a recording would keep step 1's
            return [ad.diff(u[0], t) + u[0] * ad.constant(t.value)]
        problem = Problem(residual, 1, ("t",), Uniform1D(0.0, 2.0, 16),
                          Uniform1D(0.0, 2.0, 16, "equally-spaced"))
        return fit(problem, small_config(epochs=3))

    def test_data_frozen_into_a_recording_raises(self):
        records = [0]
        with counting("_record", records), pytest.raises(
                ValueError, match=r"\(16, 1\) constant read by 'mul'"):
            self._frozen_fit()
        assert records[0] == 1  # the first training step's recording
        with graph_path():
            state = self._frozen_fit()
        assert len(state.metrics) == 3
        assert all(np.isfinite(state.train_history))

    def test_data_repeated_down_the_first_rows_raises(self):
        # a Meshed batch repeats x down its first 4 rows, so a recording
        # from those rows alone would take x's constant for a batch-shaped
        # one and train on it
        def residual(u, coords):
            x, y = coords
            return [ad.diff(u[0], y) + u[0] * ad.constant(x.value)]
        side = Uniform1D(0.0, 1.0, 4, "equally-spaced")
        problem = Problem(residual, 1, ("x", "y"), Meshed(side, side),
                          Meshed(side, side))
        config = SolverConfig(networks=[MLPSpec(2, (8,), 1)],
                              conditions=[NoCondition()], epochs=1)
        with pytest.raises(ValueError, match=r"^a \(16, 1\) constant read "
                                             r"by 'mul'"):
            fit(problem, config)

    @pytest.mark.parametrize("swap", ["conditions", "residual"])
    def test_replaced_condition_or_residual_records_again(self, swap):
        class Swap(Action):
            # a new object on every call, so no recording can be reused
            def apply(self, state):
                k = 1.0 + state.epoch
                if swap == "conditions":
                    state.conditions = [IVP1(0.0, k)]
                else:
                    state.problem.residual = lambda u, coords: [
                        ad.diff(u[0], coords[0]) + k * u[0]]
        cbs = [Callback(AfterEpoch(1), Swap())]
        records = [0]
        with counting("_record", records):
            state = fit(decay_problem(), small_config(epochs=4), cbs)
        assert records[0] == 6  # train and valid in epochs 1, 3 and 4
        with graph_path():
            built = fit(decay_problem(), small_config(epochs=4), cbs)
        assert trained(state) == trained(built)


class TestWarmStart:
    """A network replaced between ``SolverState`` and ``fit``."""

    def saved(self, tmp_path, spec):
        path = str(tmp_path / "net.ckpt")
        MLP.init(spec).save(path)
        return path

    def test_a_loaded_network_trains_as_if_the_state_had_made_it(
            self, tmp_path):
        path = self.saved(tmp_path, MLPSpec(1, (8,), 1, seed=5))
        warm = SolverState(decay_problem(), small_config(epochs=4))
        warm.networks[0] = MLP.load(path)
        fit(decay_problem(), small_config(epochs=4), state=warm)
        assert_views_of_one_vector(warm)
        # the same initial weights made by the state itself
        cfg = small_config(epochs=4)
        cfg.networks = [MLPSpec(1, (8,), 1, seed=5)]
        assert trained(warm) == trained(fit(decay_problem(), cfg))

    def test_a_resumed_warm_start_equals_one_fit(self, tmp_path):
        path = self.saved(tmp_path, MLPSpec(1, (8,), 1, seed=5))
        states = []
        for split in ((4,), (1, 3)):
            state = SolverState(decay_problem(), small_config())
            state.networks[0] = MLP.load(path)
            for epochs in split:
                fit(decay_problem(), small_config(epochs=epochs), state=state)
            states.append(state)
        assert trained(states[0]) == trained(states[1])
        assert states[0].metrics == states[1].metrics

    def test_another_shape_raises_before_the_first_step(self, tmp_path):
        path = self.saved(tmp_path, MLPSpec(1, (9,), 1, seed=5))
        state = SolverState(decay_problem(), small_config())
        before = state._params.copy()
        old = state.networks[0]
        state.networks[0] = MLP.load(path)
        with pytest.raises(ValueError,
                           match="^epoch 1: the networks' parameter shapes"):
            fit(decay_problem(), small_config(), state=state)
        assert state.epoch == 0 and state.metrics == []
        assert state._params.tobytes() == before.tobytes()
        state.networks[0] = old
        fit(decay_problem(), small_config(epochs=1), state=state)
        assert state.epoch == 1


def load_scaled(state, path):
    """Replace the first network by a saved and loaded copy of it with half
    its first layer's weights."""
    net = state.networks[0].copy()
    net.weights[0] *= 0.5
    net.save(path)
    state.networks[0] = MLP.load(path)


class TestCallbacksThatInvalidateARecording:
    """Every epoch starts as a resumed fit does: a callback's change to the
    state trains as if the fit had stopped after that epoch, the change
    been made, and the fit been resumed."""

    class Change(Action):
        def __init__(self, change):
            self.change = change

        def apply(self, state):
            self.change(state)

    # (preset, change, recordings: train and valid in epoch 1, and again in
    # epoch 3 when the change replaced what the recordings were made from)
    CHANGES = {
        "network copy": ("decay", lambda s, path: s.networks.__setitem__(
            0, s.networks[0].copy()), 4),
        "loaded network": ("decay", load_scaled, 4),
        "weight array": ("decay", lambda s, path: s.networks[0].weights
                         .__setitem__(0, s.networks[0].weights[0] * 0.5), 2),
        "bias array": ("decay", lambda s, path: s.networks[0].biases
                       .__setitem__(1, s.networks[0].biases[1] + 0.25), 2),
        "layout": ("decay-bundle", lambda s, path: setattr(
            s, "layout", BundleLayout(theta_ic={"u0": (1.0, 1.5)},
                                      theta_eq={"lam": (0.25, 1.0)})), 4),
    }

    @pytest.mark.parametrize("what", sorted(CHANGES))
    def test_trains_as_a_resumed_fit(self, what, tmp_path):
        name, change, expected = self.CHANGES[what]
        path = str(tmp_path / "net.ckpt")
        # after epoch 2 only
        cbs = [Callback(AfterEpoch(1) & ~AfterEpoch(2),
                        self.Change(lambda s: change(s, path)))]
        records = [0]
        with counting("_record", records):
            whole = preset_fit(name, epochs=4, callbacks=cbs)
        assert records[0] == expected
        assert_views_of_one_vector(whole)
        with graph_path():
            built = preset_fit(name, epochs=4, callbacks=cbs)
        split = preset_fit(name, epochs=2)
        change(split, path)
        preset_fit(name, epochs=2, state=split)
        for other in (built, split):
            assert trained(whole) == trained(other)
            assert whole.metrics == other.metrics

    def test_is_refused_naming_the_epoch(self):
        seen = []

        def reshape(state):
            seen.extend([state, state._params.copy()])
            state.networks[0].weights[0] = np.zeros((1, 9))
        cbs = [Callback(AfterEpoch(1), self.Change(reshape))]
        with pytest.raises(ValueError, match=r"^epoch 3: the networks' "
                                             r"parameter shapes"):
            fit(decay_problem(), small_config(epochs=4), cbs)
        state, before = seen
        assert state.epoch == 2 and len(state.metrics) == 2
        assert state._params.tobytes() == before.tobytes()

    def test_changes_inside_a_parameter_array_are_allowed(self):
        def scale(state):
            state.networks[0].weights[0] *= 0.5
        cbs = [Callback(AfterEpoch(1), self.Change(scale))]
        state = fit(decay_problem(), small_config(epochs=3), cbs)
        assert len(state.metrics) == 3


class TestValidationRecording:
    """Validation records with its batch kept in the program, so it replays
    only the same batch bytes."""

    class SwapValid(Action):
        """Sets a new validation generator of ``points(epoch)``."""

        def __init__(self, points):
            self.points = points

        def apply(self, state):
            state.valid_generator = Fixed(self.points(state.epoch))

    @pytest.mark.parametrize("moving, expected", [(False, 3), (True, 5)])
    def test_swapped_valid_generator_records_again(self, moving, expected):
        # 64 rows, as the decay problem's validation batch: the same key
        pts = np.linspace(0.1, 1.9, 64).reshape(-1, 1)
        swap = self.SwapValid(lambda epoch: pts + 0.01 * epoch * moving)
        cbs = [Callback(AfterEpoch(1), swap)]
        records = [0]
        with counting("_record", records):
            state = fit(decay_problem(), small_config(epochs=5), cbs)
        # train and valid in epoch 1, then valid again in epoch 3 (a new
        # batch) and, when it moves, in epochs 4 and 5
        assert records[0] == expected
        with graph_path():
            built = fit(decay_problem(), small_config(epochs=5), cbs)
        assert trained(state) == trained(built)

    def test_a_validation_program_checks_its_batch_once(self):
        # the validation batch is kept in its program, so its singularity
        # check runs at recording; a training step checks each batch
        programs, record = [], ad._record

        def recording(build, rows, data=()):
            programs.append((len(data) > 0, record(build, rows, data)))
            return programs[-1][1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "_record", recording)
            preset_fit("poisson-gaussian", batch=12, epochs=1)
        ops = {valid: [s.op for s in p.steps] for valid, p in programs}
        assert "guard" in ops[False] and "guard" not in ops[True]

    def test_singular_validation_batch_raises_in_epoch_1(self):
        # rows 0 and 1, the probe rows, are regular: the validation
        # program's recording raises, where its check runs once
        n = 12
        pts = np.column_stack([np.linspace(1.0, 2.0, n),
                               np.linspace(0.5, 1.5, n),
                               np.linspace(0.2, 1.2, n)])
        pts[-1, 0] = 0.0
        assert list(solver._probe_rows(pts)) == [0, 1, 0]
        records = [0]
        with counting("_record", records), pytest.raises(SingularityError):
            preset_fit("poisson-gaussian", batch=n, epochs=1,
                       valid=Fixed(pts))
        assert records[0] == 2  # training's, then validation's
        with graph_path(), pytest.raises(SingularityError):
            preset_fit("poisson-gaussian", batch=n, epochs=1,
                       valid=Fixed(pts))

    def test_singular_validation_batch_after_a_swap_raises(self):
        n = 12
        pts = np.column_stack([np.zeros(n), np.full(n, 1.0), np.full(n, 2.0)])
        cbs = [Callback(AfterEpoch(1), self.SwapValid(lambda epoch: pts))]
        records = [0]
        with counting("_record", records), pytest.raises(SingularityError):
            preset_fit("poisson-gaussian", batch=n, epochs=4, callbacks=cbs)
        # epoch 3's r = 0 batch was not replayed: it was recorded again,
        # and its first probe graph raised
        assert records[0] == 3
        with graph_path(), pytest.raises(SingularityError):
            preset_fit("poisson-gaussian", batch=n, epochs=4, callbacks=cbs)
