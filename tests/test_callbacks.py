import numpy as np
import pytest
from hypothesis import given, strategies as st

from neurodiff import callbacks as cb
from neurodiff.generators import Concat, Product, Static, Uniform1D
from neurodiff.losses import LossSpec
from neurodiff.network import MLP, MLPSpec


class FakeState:
    """Just enough solver state for condition/action unit tests."""

    def __init__(self, epoch=1, valid_history=(), best_updated=False):
        self.epoch = epoch
        self.train_history = []
        self.valid_history = list(valid_history)
        self.best_updated = best_updated
        self.loss_spec = LossSpec("mse")
        self.lr = 1e-3
        self.stop_requested = False
        self.train_generator = Uniform1D(0.0, 1.0, 8)
        self.networks = [MLP.init(MLPSpec(1, (4,), 1, seed=0))]


class Flag(cb.TriggerCondition):
    def __init__(self, value):
        self.value = value

    def evaluate(self, state):
        return self.value


class TestAtomicConditions:
    def test_always(self):
        assert cb.Always().evaluate(FakeState())

    def test_every_n_epochs(self):
        cond = cb.EveryNEpochs(10)
        assert cond.evaluate(FakeState(epoch=20))
        assert not cond.evaluate(FakeState(epoch=21))

    def test_after_epoch_strict(self):
        cond = cb.AfterEpoch(5)
        assert not cond.evaluate(FakeState(epoch=5))
        assert cond.evaluate(FakeState(epoch=6))

    def test_best_model_updated(self):
        assert cb.BestModelUpdated().evaluate(FakeState(best_updated=True))
        assert not cb.BestModelUpdated().evaluate(FakeState())


class TestValidationConverged:
    def test_too_short_history_is_false(self):
        cond = cb.ValidationConverged(1e-4, 3)
        assert not cond.evaluate(FakeState(valid_history=[1.0, 1.0, 1.0]))

    def test_flat_history_triggers(self):
        cond = cb.ValidationConverged(1e-4, 3)
        state = FakeState(valid_history=[5.0, 1.0, 1.0, 1.0, 1.0])
        assert cond.evaluate(state)

    def test_one_large_jump_in_window_blocks(self):
        cond = cb.ValidationConverged(1e-4, 3)
        state = FakeState(valid_history=[1.0, 1.0, 1.1, 1.1, 1.1])
        assert not cond.evaluate(state)

    def test_strict_inequality_at_delta(self):
        cond = cb.ValidationConverged(0.1, 2)
        state = FakeState(valid_history=[1.0, 1.1, 1.2])
        assert not cond.evaluate(state)  # differences equal delta, not below

    def test_only_window_tail_matters(self):
        cond = cb.ValidationConverged(1e-4, 2)
        state = FakeState(valid_history=[9.0, 3.0, 1.0, 1.0, 1.0])
        assert cond.evaluate(state)

    def test_synthetic_decay_first_trigger_epoch(self):
        # geometric decay: first epoch where the last 4 diffs are < 0.01
        history = [1.0 * 0.5 ** k for k in range(20)]
        cond = cb.ValidationConverged(0.01, 4)
        fired = []
        for e in range(1, len(history) + 1):
            if cond.evaluate(FakeState(epoch=e, valid_history=history[:e])):
                fired.append(e)
        diffs = [abs(history[i + 1] - history[i]) for i in range(19)]
        first = next(e for e in range(5, 21)
                     if all(d < 0.01 for d in diffs[e - 5:e - 1]))
        assert fired[0] == first


@pytest.mark.parametrize("make, match", [
    (lambda: cb.EveryNEpochs(0), "n must be at least 1, got 0"),
    (lambda: cb.EveryNEpochs(-2), "n must be at least 1, got -2"),
    (lambda: cb.ValidationConverged(1e-3, 0), "window must be at least 1"),
    (lambda: cb.ValidationConverged(1e-3, -1), "window must be at least 1"),
    (lambda: cb.ValidationConverged(0.0, 3), "delta must be finite and above"),
    (lambda: cb.ValidationConverged(-1.0, 3), "delta must be finite and above"),
    (lambda: cb.ValidationConverged(float("nan"), 3), "delta must be finite"),
    (lambda: cb.ValidationConverged(float("inf"), 3), "delta must be finite"),
    (lambda: cb.SetBatchSize(0), "n must be at least 1, got 0"),
    # a count that is not an integer was truncated or failed mid-run
    (lambda: cb.SetBatchSize(2.5), "SetBatchSize: n must be an integer, got 2.5"),
    (lambda: cb.SetBatchSize(True), "SetBatchSize: n must be an integer, got True"),
    (lambda: cb.SetBatchSize(np.float64(4.0)), "n must be an integer"),
    (lambda: cb.EveryNEpochs(2.5), "EveryNEpochs: n must be an integer"),
    (lambda: cb.ValidationConverged(1e-3, 2.5),
     "ValidationConverged: window must be an integer, got 2.5"),
    (lambda: cb.ValidationConverged(1e-3, True), "window must be an integer"),
])
def test_meaningless_settings_are_rejected_when_built(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_numpy_integer_counts_are_accepted():
    assert cb.SetBatchSize(np.int64(4)).n == 4
    assert cb.EveryNEpochs(np.int32(2)).evaluate(FakeState(epoch=4))
    assert cb.ValidationConverged(1e-3, np.uint8(1)).window == 1


class TestBooleanAlgebra:
    def test_truth_tables(self):
        s = FakeState()
        for a in (False, True):
            for b in (False, True):
                assert (Flag(a) & Flag(b)).evaluate(s) == (a and b)
                assert (Flag(a) | Flag(b)).evaluate(s) == (a or b)
                assert (Flag(a) ^ Flag(b)).evaluate(s) == (a != b)
            assert (~Flag(a)).evaluate(s) == (not a)

    @given(st.booleans(), st.booleans())
    def test_de_morgan(self, a, b):
        s = FakeState()
        assert (~(Flag(a) & Flag(b))).evaluate(s) == \
            ((~Flag(a)) | (~Flag(b))).evaluate(s)
        assert (~(Flag(a) | Flag(b))).evaluate(s) == \
            ((~Flag(a)) & (~Flag(b))).evaluate(s)

    @given(st.booleans(), st.booleans(), st.booleans())
    def test_composition_nests(self, a, b, c):
        s = FakeState()
        expr = (Flag(a) & ~Flag(b)) ^ Flag(c)
        assert expr.evaluate(s) == ((a and not b) != c)


class TestActions:
    def test_set_loss(self):
        s = FakeState()
        cb.SetLoss(LossSpec("l1")).apply(s)
        assert s.loss_spec.kind == "l1"

    def test_set_learning_rate(self):
        s = FakeState()
        cb.SetLearningRate(5e-4).apply(s)
        assert s.lr == 5e-4

    def test_early_stop(self):
        s = FakeState()
        cb.EarlyStop().apply(s)
        assert s.stop_requested

    def test_set_batch_size(self):
        s = FakeState()
        cb.SetBatchSize(64).apply(s)
        assert len(s.train_generator) == 64

    @pytest.mark.parametrize("gen", [
        Static(np.zeros((8, 1))),
        Concat(Uniform1D(0.0, 1.0, 4), Uniform1D(1.0, 2.0, 4)),
        Product(Uniform1D(0.0, 1.0, 8), Uniform1D(1.0, 2.0, 8))],
        ids=lambda g: type(g).__name__)
    def test_set_batch_size_without_with_size_raises(self, gen):
        s = FakeState()
        s.train_generator = gen
        with pytest.raises(ValueError, match="^SetBatchSize: cannot resize a "
                                             f"{type(gen).__name__} generator"):
            cb.SetBatchSize(4).apply(s)
        assert s.train_generator is gen

    def test_set_train_generator(self):
        s = FakeState()
        g = Uniform1D(0.0, 2.0, 16)
        cb.SetTrainGenerator(g).apply(s)
        assert s.train_generator is g

    def test_save_checkpoint_pattern(self, tmp_path):
        s = FakeState(epoch=7)
        pattern = str(tmp_path / "ep{epoch}-net{net}.ckpt")
        cb.SaveCheckpoint(pattern).apply(s)
        loaded = MLP.load(tmp_path / "ep7-net0.ckpt")
        assert loaded.flat_params().tobytes() == \
            s.networks[0].flat_params().tobytes()

    def test_log_message(self, caplog):
        s = FakeState()
        s.train_history = [0.5]
        s.valid_history = [0.25]
        with caplog.at_level("INFO", logger="neurodiff"):
            cb.LogMessage().apply(s)
        assert "0.25" in caplog.text


class TestCallback:
    def test_single_action_wrapped_in_tuple(self):
        c = cb.Callback(cb.Always(), cb.EarlyStop())
        assert c.actions == (cb.EarlyStop(),)

    def test_actions_fire_in_order(self):
        s = FakeState()
        c = cb.Callback(cb.Always(),
                        (cb.SetLearningRate(1e-4), cb.SetLoss(LossSpec("l1"))))
        for action in c.actions:
            action.apply(s)
        assert s.lr == 1e-4 and s.loss_spec.kind == "l1"
