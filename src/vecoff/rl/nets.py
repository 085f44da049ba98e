"""Small dense networks with explicit backpropagation.

Everything trains through plain numpy so the gradient path is inspectable
and checkable against finite differences. Layers are fully connected;
hidden activations are ReLU or tanh, outputs are always linear (callers
apply their own loss heads). Initialization scales with fan-in and is
driven entirely by the supplied generator, so a seed fixes the network.

A learning step allocates no array the size of a parameter. ``backward``
writes each weight gradient into a buffer its network owns, and ``Adam``
computes its update in two scratch arrays per parameter; both are made
once and reused. The hidden layers are 128x128 float64, 128 KiB: at
glibc's initial 128 KiB mmap threshold every fresh array of that size
is a new mapping, paid for in page faults. ``backward`` also applies
the activation's derivative in place, which for ReLU saves two
batch-sized temporaries per hidden layer. Each array operation is the
IEEE operation, in the order, of the whole-array expression it
replaces, so results are bit-identical to computing with fresh
temporaries.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_ACTIVATIONS = ("relu", "tanh")

# Adam's moment decays and denominator guard (Kingma & Ba 2015 defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Mlp:
    """Fully connected network: linear layers with a nonlinearity between.

    Weights have shape (fan_in, fan_out); inputs are row vectors, batches
    are stacked rows.
    """

    _grad_w: list[np.ndarray] | None = None  # made by the first ``backward``
    _one: list[np.ndarray] | None = None  # made by the first ``forward_one``

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator | None = None,
        activation: str = "relu",
    ):
        if len(sizes) < 2:
            raise ValueError(f"need at least input and output sizes, got {sizes}")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")
        self.sizes = tuple(int(s) for s in sizes)
        self.activation = activation
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        if rng is not None:
            for fan_in, fan_out in zip(self.sizes, self.sizes[1:]):
                gain = 2.0 if activation == "relu" else 1.0
                scale = math.sqrt(gain / fan_in)
                self.weights.append(rng.standard_normal((fan_in, fan_out)) * scale)
                self.biases.append(np.zeros(fan_out))

    @classmethod
    def from_weights(
        cls, layers: Sequence[tuple[np.ndarray, np.ndarray]], activation: str = "relu"
    ) -> "Mlp":
        sizes = [layers[0][0].shape[0]] + [w.shape[1] for w, _ in layers]
        net = cls(sizes, rng=None, activation=activation)
        for w, b in layers:
            if w.shape[1] != b.shape[0]:
                raise ValueError(f"bias shape {b.shape} does not match weight {w.shape}")
            net.weights.append(np.array(w, dtype=np.float64))
            net.biases.append(np.array(b, dtype=np.float64))
        return net

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Copies of (weight, bias) per layer, in forward order."""
        return [(w.copy(), b.copy()) for w, b in zip(self.weights, self.biases)]

    def clone(self) -> "Mlp":
        # from_weights copies every array, so the clone shares none
        return Mlp.from_weights(list(zip(self.weights, self.biases)), activation=self.activation)

    def params(self) -> list[np.ndarray]:
        """The live parameter arrays, interleaved [W0, b0, W1, b1, ...]."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def _act(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.activation == "relu":
            return np.maximum(z, 0.0, out=out)
        return np.tanh(z, out=out)

    def _act_grad(self, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        if self.activation == "relu":
            return z > 0.0  # multiplies as 1.0 and 0.0
        return 1.0 - a * a

    def forward(self, x: np.ndarray, want_cache: bool = False):
        """Batch forward pass. ``x`` is (batch, in) or (in,).

        With ``want_cache`` the returned cache feeds ``backward``.
        """
        squeeze = x.ndim == 1
        a = np.atleast_2d(np.asarray(x, dtype=np.float64))
        pre: list[np.ndarray] = []
        post: list[np.ndarray] = [a]
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            pre.append(z)
            a = self._act(z) if i < n_layers - 1 else z
            post.append(a)
        out = a[0] if squeeze else a
        if want_cache:
            return out, (pre, post, squeeze)
        return out

    def forward_one(self, x: np.ndarray) -> np.ndarray:
        """``forward`` of one state ``x`` (in,), bit for bit (a property test
        pins it), in buffers this network makes at its first call: ``np.dot``
        into each, then bias and activation in place. The next call
        overwrites the output."""
        if self._one is None:
            self._one = [np.empty_like(b) for b in self.biases]
        for i, (w, b, z) in enumerate(zip(self.weights, self.biases, self._one)):
            np.dot(x, w, out=z)
            z += b
            if i < len(self._one) - 1:
                self._act(z, out=z)
            x = z
        return x

    def backward(self, cache, grad_out: np.ndarray) -> list[np.ndarray]:
        """Gradients of a scalar loss wrt every parameter.

        ``grad_out`` is dLoss/d(output), shaped like the forward output.
        Returns gradients aligned with ``params()``.

        The weight gradients are buffers this network owns, made at its
        first ``backward`` call (so nets that only run forward, such as
        target nets, snapshot clones and loaded policies, hold none). The
        next ``backward`` call on the same network overwrites them: copy
        a gradient that must outlive it. Bias gradients are fresh arrays.
        """
        pre, post, squeeze = cache
        g = np.atleast_2d(np.asarray(grad_out, dtype=np.float64))
        if self._grad_w is None:
            self._grad_w = [np.empty_like(w) for w in self.weights]
        out: list[np.ndarray] = [None] * (2 * len(self.weights))
        for i in range(len(self.weights) - 1, -1, -1):
            out[2 * i] = np.matmul(post[i].T, g, out=self._grad_w[i])
            out[2 * i + 1] = g.sum(axis=0)
            if i > 0:
                g = g @ self.weights[i].T
                g *= self._act_grad(pre[i - 1], post[i])
        return out


class Adam:
    """Adaptive-moment optimizer over a fixed parameter list.

    Updates the arrays in place; the parameter list must keep its identity
    between steps. Each parameter has two scratch arrays of its shape,
    made here, that hold the update while ``step`` computes it, so a
    step allocates nothing the size of a parameter.
    """

    def __init__(self, params: Sequence[np.ndarray], lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in self.params]

    def step(self, grads: Sequence[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError(
                f"got {len(grads)} gradients for {len(self.params)} parameters"
            )
        self.t += 1
        b1c = 1.0 - ADAM_BETA1**self.t
        b2c = 1.0 - ADAM_BETA2**self.t
        # p -= lr * (m / b1c) / (sqrt(v / b2c) + eps), one operation at a
        # time in the order that expression evaluates, written into t and u
        for p, g, m, v, (t, u) in zip(self.params, grads, self.m, self.v, self._scratch):
            m *= ADAM_BETA1
            np.multiply(1.0 - ADAM_BETA1, g, out=t)
            m += t
            v *= ADAM_BETA2
            np.multiply(g, g, out=t)
            np.multiply(1.0 - ADAM_BETA2, t, out=t)
            v += t
            np.divide(m, b1c, out=t)
            np.multiply(self.lr, t, out=t)
            np.divide(v, b2c, out=u)
            np.sqrt(u, out=u)
            u += ADAM_EPS
            t /= u
            p -= t
