"""A tiny linear SVM (primal, sub-gradient trained) — SignalGuru's and
BCP's prediction-model kernel.

Trained deterministically on synthetic data drawn from the same
distribution the stream generators use, so predictions are a pure
function of the input features (required for recovery determinism).
The training data is a pure function of a seed too, so each app fits a
model once per seed and process and shares it, frozen, between its
operators and runs.
"""

from __future__ import annotations

import numpy as np

# Per app, how many seeds' fitted models a process keeps (the apps cache
# them with functools.lru_cache: a model is a pure function of its seed).
MODEL_CACHE_SIZE = 64


class LinearSVM:
    """Binary linear SVM with hinge loss, trained by deterministic
    full-batch sub-gradient descent."""

    def __init__(self, dim: int, reg: float = 0.01):
        self.w = np.zeros(dim, dtype=float)
        self.b = 0.0
        self.reg = reg
        self.trained = False

    def fit(self, X: np.ndarray, y: np.ndarray, epochs: int = 50, lr: float = 0.1) -> "LinearSVM":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        # Elementwise: numpy's unique() imports the masked-array module,
        # which nothing else on the run path needs (RET001 refuses it).
        # NaN fails both comparisons.
        if np.any((y != 1.0) & (y != -1.0)):
            raise ValueError("labels must be in {-1, +1}")
        for _ in range(epochs):
            margins = y * (X @ self.w + self.b)
            active = margins < 1.0
            grad_w = self.reg * self.w - (y[active, None] * X[active]).mean(axis=0) if active.any() else self.reg * self.w
            grad_b = -(y[active]).mean() if active.any() else 0.0
            self.w -= lr * grad_w
            self.b -= lr * grad_b
        self.trained = True
        return self

    def frozen(self) -> "LinearSVM":
        """Make the fitted weights read-only (for a model shared between
        operators and runs); returns ``self``."""
        self.w.flags.writeable = False
        return self

    def decision(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.w + self.b

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.decision(X) >= 0.0, 1, -1)

    def accuracy(self, X: np.ndarray, y: np.ndarray) -> float:
        return float((self.predict(X) == np.asarray(y)).mean())
