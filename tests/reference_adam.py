"""The whole-array Adam update the package ran before it worked over a flat arena.

Test-only reference: each parameter's update is one numpy expression per
line over the whole array. Its moments and step count live in `moments`,
keyed by parameter. `nn.adam_step` must leave the same bytes.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from latentheads.errors import NonFiniteError
from latentheads.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON


def adam_step(params: Iterable, lr: float, moments: dict) -> None:
    items = list(params)
    for name, p in items:
        if not np.all(np.isfinite(p.grad)):
            raise NonFiniteError(f"non-finite gradient in parameter {name!r}")
    for _, p in items:
        state = moments.setdefault(p, [np.zeros_like(p.data), np.zeros_like(p.data), 0])
        m, v = state[0], state[1]
        t = state[2] = state[2] + 1
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * p.grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (p.grad * p.grad)
        m_hat, v_hat = m / (1.0 - ADAM_BETA1 ** t), v / (1.0 - ADAM_BETA2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
        p.grad[...] = 0.0
