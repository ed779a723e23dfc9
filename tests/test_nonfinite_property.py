"""Property: a non-finite value injected into training stops the run, named.

A NaN, +inf or -inf put into one element of one linear's weight, or into
the input batch, at some step of ``train_teacher`` or ``finetune`` must end
the run in a ``DomainError`` (CLI exit 6) naming the stage, that step and
the layer where the value surfaced. No other exception escapes, and the
last finite loss it reports is the clean run's loss of the step before, so
no finite loss was recorded for the poisoned step.
"""

import re
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from quantdistill import pretrain  # noqa: E402
from quantdistill.distiller import DistillConfig, calibrate, finetune, prepare_student  # noqa: E402
from quantdistill.errors import DomainError  # noqa: E402
from quantdistill.graph import build_embedding_net  # noqa: E402
from quantdistill.pretrain import TeacherConfig, train_teacher  # noqa: E402
from quantdistill.synth import Batch, batch_stream, make_identity_space  # noqa: E402
from quantdistill.tensor_core import Tensor  # noqa: E402

STEPS = 4
BATCH = 8
LINEARS = 3   # 12 -> 16 -> 16 -> 8

values = st.sampled_from([np.nan, np.inf, -np.inf])


def _space():
    return make_identity_space(10, 6, 12, 0.15, seed=0)


def _net():
    return build_embedding_net(12, (16, 16), 8, seed=1)


def _teacher_cfg():
    return TeacherConfig(iterations=STEPS, batch_size=BATCH, seed=2)


def _student(teacher):
    student = prepare_student(teacher, 4)
    return calibrate(student, batch_stream(_space(), BATCH, seed=3), 2)


def _distill_cfg():
    return DistillConfig(batch_size=BATCH, iterations=STEPS, lr=0.05, bit_width=4)


@lru_cache(maxsize=None)
def _clean_losses(stage: str) -> tuple[float, ...]:
    if stage == "pretrain":
        return tuple(train_teacher(_net(), _space(), _teacher_cfg()))
    teacher = _net()
    _, curve = finetune(_student(teacher), teacher, batch_stream(_space(), BATCH, seed=4),
                        _distill_cfg())
    return tuple(r.loss for r in curve)


def _poison(array: np.ndarray, flat_index: int, value: float) -> Tensor:
    out = array.copy()
    out.flat[flat_index % out.size] = value
    return Tensor._wrap(out)


def _poisoning(stream, at_step: int, poison):
    """The batches of ``stream``; the one for ``at_step`` is handed to
    ``poison`` first, which may alter a net's weight or return a new batch."""
    for step, batch in enumerate(stream):
        if step == at_step:
            batch = poison(batch) or batch
        yield batch


def _injector(net, target, flat_index, value):
    """``target`` is a linear index, or None for the input batch."""
    def poison(batch):
        if target is None:
            return Batch(_poison(batch.inputs.data, flat_index, value), batch.labels)
        layer = net.linear_layers[target]
        layer.weight = _poison(layer.weight.data, flat_index, value)
    return poison


def _check(info, stage, step, layer, clean):
    message = str(info.value)
    last = "none" if step == 0 else f"{clean[step - 1]:.9g}"
    assert message.startswith(f"{stage} step {step}: "), message
    assert re.search(rf"\blayer {layer}\b", message), message
    assert message.endswith(f"(last finite loss {last})"), message


@settings(max_examples=40)
@given(step=st.integers(0, STEPS - 1), target=st.one_of(st.none(), st.integers(0, LINEARS - 1)),
       flat_index=st.integers(0, 10_000), value=values)
def test_pretrain(step, target, flat_index, value):
    net = _net()
    poison = _injector(net, target, flat_index, value)

    def stream(*args, **kwargs):
        return _poisoning(batch_stream(*args, **kwargs), step, poison)

    with mock.patch.object(pretrain, "batch_stream", stream), \
            pytest.raises(DomainError) as info:
        train_teacher(net, _space(), _teacher_cfg())
    _check(info, "pretrain", step, 0 if target is None else target, _clean_losses("pretrain"))


@settings(max_examples=60)
@given(step=st.integers(0, STEPS - 1), target=st.one_of(st.none(), st.integers(0, LINEARS - 1)),
       poison_student=st.booleans(), flat_index=st.integers(0, 10_000), value=values)
def test_finetune(step, target, poison_student, flat_index, value):
    teacher = _net()
    student = _student(teacher)
    poison = _injector(student if poison_student else teacher, target, flat_index, value)
    data = _poisoning(batch_stream(_space(), BATCH, seed=4), step, poison)
    with pytest.raises(DomainError) as info:
        finetune(student, teacher, data, _distill_cfg())
    _check(info, "distill w4", step, 0 if target is None else target, _clean_losses("distill"))
