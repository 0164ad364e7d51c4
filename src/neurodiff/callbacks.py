"""Trigger conditions and actions evaluated after every training epoch.

Conditions are pure predicates over the solver state and compose with the
boolean operators & (and), | (or), ~ (not), and ^ (xor).  Actions mutate the
solver state through a narrow interface; a loss or generator change takes
effect from the next epoch and never rewrites recorded history.
"""

import logging
import math
import numbers
from dataclasses import dataclass

from .generators import _check_count

logger = logging.getLogger("neurodiff")


class TriggerCondition:
    def evaluate(self, state):
        raise NotImplementedError

    def __and__(self, other):
        return And(self, other)

    def __or__(self, other):
        return Or(self, other)

    def __xor__(self, other):
        return Xor(self, other)

    def __invert__(self):
        return Not(self)


@dataclass(frozen=True)
class Always(TriggerCondition):
    def evaluate(self, state):
        return True


@dataclass(frozen=True)
class EveryNEpochs(TriggerCondition):
    n: int

    def __post_init__(self):
        _check_count("EveryNEpochs", "n", self.n)

    def evaluate(self, state):
        return state.epoch % self.n == 0


@dataclass(frozen=True)
class AfterEpoch(TriggerCondition):
    e: int

    def evaluate(self, state):
        return state.epoch > self.e


@dataclass(frozen=True)
class ValidationConverged(TriggerCondition):
    """True when the last `window` successive validation-loss differences
    are all below `delta` (absolute)."""

    delta: float
    window: int

    def __post_init__(self):
        _check_count("ValidationConverged", "window", self.window)
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("ValidationConverged: delta must be finite and "
                             f"above 0, got {self.delta!r}")

    def evaluate(self, state):
        v = state.valid_history
        if len(v) < self.window + 1:
            return False
        tail = v[-(self.window + 1):]
        return all(abs(tail[i + 1] - tail[i]) < self.delta
                   for i in range(self.window))


@dataclass(frozen=True)
class BestModelUpdated(TriggerCondition):
    def evaluate(self, state):
        return state.best_updated


@dataclass(frozen=True)
class And(TriggerCondition):
    left: TriggerCondition
    right: TriggerCondition

    def evaluate(self, state):
        return self.left.evaluate(state) and self.right.evaluate(state)


@dataclass(frozen=True)
class Or(TriggerCondition):
    left: TriggerCondition
    right: TriggerCondition

    def evaluate(self, state):
        return self.left.evaluate(state) or self.right.evaluate(state)


@dataclass(frozen=True)
class Xor(TriggerCondition):
    left: TriggerCondition
    right: TriggerCondition

    def evaluate(self, state):
        return self.left.evaluate(state) != self.right.evaluate(state)


@dataclass(frozen=True)
class Not(TriggerCondition):
    inner: TriggerCondition

    def evaluate(self, state):
        return not self.inner.evaluate(state)


class Action:
    def apply(self, state):
        raise NotImplementedError


@dataclass(frozen=True)
class SetLoss(Action):
    spec: object

    def apply(self, state):
        state.loss_spec = self.spec


@dataclass(frozen=True)
class SetLearningRate(Action):
    lr: float

    def __post_init__(self):
        if not (isinstance(self.lr, numbers.Real) and math.isfinite(self.lr)
                and self.lr > 0):
            raise ValueError("SetLearningRate: lr must be finite and above 0, "
                             f"got {self.lr!r}")

    def apply(self, state):
        state.lr = self.lr


@dataclass(frozen=True)
class EarlyStop(Action):
    def apply(self, state):
        state.stop_requested = True


@dataclass(frozen=True)
class SaveCheckpoint(Action):
    """Path pattern may contain {epoch} and, for multi-network problems,
    {net}; each network is written in the checkpoint file format."""

    pattern: str

    def apply(self, state):
        for i, net in enumerate(state.networks):
            path = self.pattern.format(epoch=state.epoch, net=i)
            net.save(path)


@dataclass(frozen=True)
class LogMessage(Action):
    template: str = "epoch {epoch}: train={train_loss:.6g} valid={valid_loss:.6g}"

    def apply(self, state):
        msg = self.template.format(
            epoch=state.epoch,
            train_loss=state.train_history[-1] if state.train_history else float("nan"),
            valid_loss=state.valid_history[-1] if state.valid_history else float("nan"),
        )
        logger.info(msg)


@dataclass(frozen=True)
class SetBatchSize(Action):
    n: int

    def __post_init__(self):
        _check_count("SetBatchSize", "n", self.n)

    def apply(self, state):
        gen = state.train_generator
        if not hasattr(gen, "with_size"):
            raise ValueError(f"SetBatchSize: cannot resize a "
                             f"{type(gen).__name__} generator")
        state.train_generator = gen.with_size(self.n)


@dataclass(frozen=True)
class SetTrainGenerator(Action):
    generator: object

    def apply(self, state):
        state.train_generator = self.generator


@dataclass(frozen=True)
class Callback:
    """A trigger condition paired with the actions it fires."""

    condition: TriggerCondition
    actions: tuple

    def __init__(self, condition, actions):
        object.__setattr__(self, "condition", condition)
        if not isinstance(actions, (list, tuple)):
            actions = (actions,)
        object.__setattr__(self, "actions", tuple(actions))
