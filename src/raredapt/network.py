"""Three-part MLP with exact manual backpropagation.

The network splits into a feature extractor, a label classifier head, and a
two-way domain discriminator head. Each part runs forward and backward on its
own: ``backward(part, trace, dout)`` accumulates that part's gradients from a
cached forward trace and returns the gradient w.r.t. the part's input, so the
training step composes the heads, the gradient reversal layer and the
extractor itself (see :mod:`raredapt.training`). The extractor's input is
data, which has no gradient to take, so its ``backward`` skips that last
product and returns ``None``. Backprop is written out by hand; every gradient
in here is validated against central finite differences in the test suite.

Each layer's forward pass allocates one array, its output: the product
``a @ w``, to which the bias is added and the ReLU applied in place. A trace
keeps the part's input and those outputs only. The ReLU gate of the backward
pass reads the activation, which is positive exactly where the
pre-activation was, so no pre-activation needs keeping. Evaluation and
projection forward thousands of rows at once, and there the temporaries,
not Python overhead, set both time and peak memory.

Forward and backward check shapes only: an input must be a 2-D float array
of the part's input width, and an upstream gradient must match the part's
output. Values are not scanned. Inputs come from a ``Dataset``, which checked
its features when it was built, or from another part; a NaN or Inf that
arises on the way reaches the losses and is caught by the training step's
loss and gradient checks, or by ``evaluate``'s check of its logits.

Parameter layout: all weights and biases of a ``Network`` live in one
contiguous float64 vector ``params`` and their gradients in a second one,
``grads``, of the same length. Every weight matrix comes first, in
``parameters()`` order, then every bias in the same order, so the weights are
the leading ``weight_size`` elements. Each ``Layer.w/b/gw/gb`` is a reshaped
view into those vectors: forward and backward read and accumulate through the
views, while whole-model operations (the optimizer step, zeroing gradients,
snapshots, loading state) are single vector operations. Outside this module
parameter state is only ever that vector: ``snapshot`` copies it,
``load_state`` writes one back, and a checkpoint stores it as one record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .numerics import require_fields

_PARTS = ("extractor", "classifier", "discriminator")

ARCH_RULES = (
    ("non-empty", bool, ("feature_dims",)),
    ("all >= 1", lambda v: min(v, default=1) >= 1,
     ("feature_dims", "classifier_hidden", "discriminator_hidden")),
)
_SPEC_RULES = ((">= 1", lambda v: v >= 1, ("input_dim", "class_count")), *ARCH_RULES)


@dataclass(frozen=True)
class NetworkSpec:
    """The shape of the three-part model; every layer is derived from it.

    The extractor maps ``input_dim`` through ``feature_dims``; its last width
    is the feature dimension both heads read. The classifier maps features
    through ``classifier_hidden`` to ``class_count`` logits, the discriminator
    through ``discriminator_hidden`` to two (source vs target). The extractor
    activates after every layer, so features are post-activation; both heads
    emit raw logits. The widths a ``TrainConfig`` also holds are checked by
    ``ARCH_RULES``, the table the config checks them with.
    """

    input_dim: int
    class_count: int
    feature_dims: tuple[int, ...]
    classifier_hidden: tuple[int, ...]
    discriminator_hidden: tuple[int, ...]

    def __post_init__(self):
        require_fields(self, _SPEC_RULES)

    @property
    def feature_dim(self) -> int:
        return self.feature_dims[-1]

    def layer_dims(self, part: str) -> list[tuple[int, int]]:
        """``(fan_in, fan_out)`` of each layer of ``part``, input first."""
        dims = {
            "extractor": (self.input_dim, *self.feature_dims),
            "classifier": (self.feature_dim, *self.classifier_hidden, self.class_count),
            "discriminator": (self.feature_dim, *self.discriminator_hidden, 2),
        }[part]
        return list(zip(dims[:-1], dims[1:]))

    @property
    def param_count(self) -> int:
        """Length of a ``Network``'s flat parameter vector: every weight and bias."""
        return sum(
            (fan_in + 1) * fan_out for part in _PARTS for fan_in, fan_out in self.layer_dims(part)
        )


@dataclass
class Layer:
    """One dense layer: views of its weights, biases and their gradients."""

    w: np.ndarray
    b: np.ndarray
    gw: np.ndarray
    gb: np.ndarray


@dataclass
class PartTrace:
    """Cached forward pass of one part: its input and each layer's output.

    Enough to run exact backprop without re-running the forward pass. No
    pre-activation is kept: the ReLU gate reads the activation, since
    ``max(z, 0) > 0`` exactly when ``z > 0`` (a NaN fails both).
    """

    x: np.ndarray
    act: list[np.ndarray]

    @property
    def output(self) -> np.ndarray:
        return self.act[-1]


def _activates_last(part: str) -> bool:
    """The one activation rule of forward and backward: the extractor applies
    the activation after its last layer too, so features are post-activation;
    the two heads emit raw logits. Every hidden layer is activated."""
    return part == "extractor"


def grl_backward(upstream: np.ndarray, scale: float) -> np.ndarray:
    """Gradient reversal layer backward pass: exactly -scale * upstream."""
    if scale < 0:
        raise ValueError(f"reversal scale must be >= 0, got {scale}")
    return -scale * np.asarray(upstream)


class Network:
    """Parameters plus per-part forward/backward ops for the three-part model.

    Gradients accumulate into per-layer buffers across backward calls until
    ``zero_grads``; a training step may therefore combine several partial
    backward passes (e.g. separate source and target batches).

    ``Network(spec)`` allocates the flat ``params`` and ``grads`` vectors (see
    the module docstring), all zeros, and binds each layer's ``w``/``b``/
    ``gw``/``gb`` as a view into them. Write parameters in place
    (``layer.w[...] = ...``): assigning a new array to ``layer.w`` detaches it
    from the buffer the optimizer steps.
    """

    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        dims = [(n, i, d) for n in _PARTS for i, d in enumerate(spec.layer_dims(n))]
        self.weight_size = sum(fan_in * fan_out for *_, (fan_in, fan_out) in dims)
        self.params = np.zeros(spec.param_count)
        self.grads = np.zeros(spec.param_count)
        self.parts: dict[str, list[Layer]] = {name: [] for name in _PARTS}
        # '<part>.<i>.<w|b>' -> (slice of params/grads, shape), in parameters() order
        self.slots: dict[str, tuple[slice, tuple[int, ...]]] = {}
        w_at, b_at = 0, self.weight_size
        for name, i, (fan_in, fan_out) in dims:
            w = (slice(w_at, w_at + fan_in * fan_out), (fan_in, fan_out))
            b = (slice(b_at, b_at + fan_out), (fan_out,))
            w_at, b_at = w[0].stop, b[0].stop
            self.slots[f"{name}.{i}.w"], self.slots[f"{name}.{i}.b"] = w, b
            self.parts[name].append(
                Layer(*(buf[span].reshape(shape)
                        for buf in (self.params, self.grads) for span, shape in (w, b)))
            )

    @classmethod
    def initialize(cls, spec: NetworkSpec, rng: np.random.Generator) -> "Network":
        """He-initialized weights, zero biases; draw order is fixed per part."""
        net = cls(spec)
        for _, _, layer in net.parameters():
            fan_in = layer.w.shape[0]
            layer.w[...] = rng.standard_normal(layer.w.shape) * np.sqrt(2.0 / fan_in)
        return net

    # -- forward ---------------------------------------------------------

    def _forward_part(self, name: str, x: np.ndarray) -> PartTrace:
        layers = self.parts[name]
        fan_in = layers[0].w.shape[0]
        if x.ndim != 2 or x.shape[1] != fan_in:
            raise ValueError(f"{name} expects input dim {fan_in}, got shape {x.shape}")
        activate_last = _activates_last(name)
        act = []
        a = x
        for i, layer in enumerate(layers):
            a = a @ layer.w
            a += layer.b
            if activate_last or i < len(layers) - 1:
                np.maximum(a, 0.0, out=a)
            act.append(a)
        return PartTrace(x=x, act=act)

    def forward_features(self, x: np.ndarray) -> tuple[np.ndarray, PartTrace]:
        trace = self._forward_part("extractor", x)
        return trace.output, trace

    def forward_classifier(self, features: np.ndarray) -> tuple[np.ndarray, PartTrace]:
        trace = self._forward_part("classifier", features)
        return trace.output, trace

    def forward_discriminator(self, features: np.ndarray) -> tuple[np.ndarray, PartTrace]:
        trace = self._forward_part("discriminator", features)
        return trace.output, trace

    # -- backward --------------------------------------------------------

    def backward(self, part: str, trace: PartTrace, dout: np.ndarray) -> np.ndarray | None:
        """Accumulate one part's gradients; return the gradient w.r.t. its input.

        ``trace`` is that part's forward trace and ``dout`` the gradient w.r.t.
        its output. The extractor's input is data, so its input gradient is
        never computed and ``None`` is returned.
        """
        layers = self.parts[part]
        activate_last = _activates_last(part)
        if dout.shape != trace.act[-1].shape:
            raise ValueError(
                f"{part} upstream gradient shape {dout.shape} != output {trace.act[-1].shape}"
            )
        g = dout
        for i in reversed(range(len(layers))):
            if activate_last or i < len(layers) - 1:
                g = g * (trace.act[i] > 0.0)
            inp = trace.act[i - 1] if i > 0 else trace.x
            layers[i].gw += inp.T @ g
            layers[i].gb += g.sum(axis=0)
            if i or not activate_last:
                g = g @ layers[i].w.T
        return None if activate_last else g

    # -- parameter access --------------------------------------------------

    def zero_grads(self) -> None:
        self.grads.fill(0.0)

    def parameters(self) -> Iterator[tuple[str, int, Layer]]:
        """Yield (part name, layer index, layer) in a fixed, documented order."""
        for name in _PARTS:
            for i, layer in enumerate(self.parts[name]):
                yield name, i, layer

    def snapshot(self) -> np.ndarray:
        """A copy of the flat parameter vector ``params``."""
        return self.params.copy()

    def load_state(self, params: np.ndarray) -> None:
        """Write a ``snapshot`` vector into ``params``; nothing is written
        unless its shape matches."""
        params = np.asarray(params, dtype=np.float64)
        if params.shape != self.params.shape:
            raise ValueError(f"parameter vector shape {params.shape} != {self.params.shape}")
        self.params[...] = params
