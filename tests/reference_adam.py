"""The whole-array Adam update the package ran before it worked in pieces.

Test-only reference: each parameter's update is one numpy expression per
line over the whole array. `nn.adam_step` must leave the same bytes.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from latentheads.errors import NonFiniteError
from latentheads.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON


def adam_step(params: Iterable, lr: float = 0.001) -> None:
    items = list(params)
    for name, p in items:
        if not np.all(np.isfinite(p.grad)):
            raise NonFiniteError(f"non-finite gradient in parameter {name!r}")
    for _, p in items:
        if p.adam_m is None:
            p.adam_m, p.adam_v = np.zeros_like(p.data), np.zeros_like(p.data)
        t = p.step_count = p.step_count + 1
        p.adam_m *= ADAM_BETA1
        p.adam_m += (1.0 - ADAM_BETA1) * p.grad
        p.adam_v *= ADAM_BETA2
        p.adam_v += (1.0 - ADAM_BETA2) * (p.grad * p.grad)
        m_hat, v_hat = p.adam_m / (1.0 - ADAM_BETA1 ** t), p.adam_v / (1.0 - ADAM_BETA2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
        p.grad[...] = 0.0
