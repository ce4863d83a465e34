"""Adam over one flat parameter vector.

PatchNet keeps every learnable tensor as a view into one float32 vector
(``PatchNetParams.learnable``), so a step is one update over the (values, m,
v) vectors fed one flat gradient. The update is element-wise, so it gives
the same bits as updating each tensor on its own.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_init(values: np.ndarray) -> AdamState:
    return AdamState(m=np.zeros_like(values, dtype=np.float32),
                     v=np.zeros_like(values, dtype=np.float32))


def adam_step(
    values: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """One bias-corrected Adam update, applied to ``values`` in place."""
    g = np.asarray(grad, dtype=np.float32)
    if g.shape != values.shape:
        raise InvalidArgumentError(f"gradient shape {g.shape} != parameter shape {values.shape}")
    state.t += 1
    t = state.t
    m, v = state.m, state.v
    step = g * (1.0 - beta1)  # scratch: (1 − β1)·g, then (1 − β2)·g·g, then √v̂ + ε
    m *= beta1
    m += step
    v *= beta2
    v += np.multiply(np.multiply(g, 1.0 - beta2, out=step), g, out=step)
    np.sqrt(np.divide(v, 1.0 - beta2**t, out=step), out=step)
    step += eps
    m_hat = m / (1.0 - beta1**t)
    m_hat *= lr
    values -= np.divide(m_hat, step, out=m_hat)
    return state
