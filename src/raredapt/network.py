"""Three-part MLP with exact manual backpropagation.

The network splits into a feature extractor, a label classifier head, and a
two-way domain discriminator head. Each part runs forward and backward on its
own: ``backward(part, trace, dout)`` accumulates that part's gradients from a
cached forward trace and returns the gradient w.r.t. the part's input, so the
training step composes the heads, the gradient reversal layer and the
extractor itself (see :mod:`raredapt.training`). Backprop is written out by
hand; every gradient in here is validated against central finite differences
in the test suite.

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

from .numerics import as_matrix, require_finite

_PARTS = ("extractor", "classifier", "discriminator")


@dataclass(frozen=True)
class MlpSpec:
    """Shape description of one network part: input -> hidden... -> output."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(d < 1 for d in dims):
            raise ValueError(f"all layer dims must be >= 1, got {dims}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        return list(zip(dims[:-1], dims[1:]))


@dataclass(frozen=True)
class NetworkSpec:
    """The full extractor/classifier/discriminator wiring.

    The extractor applies the activation after every layer, so features are
    post-activation; both heads are linear in their final layer and emit raw
    logits. The discriminator always has two outputs (source vs target).
    """

    extractor: MlpSpec
    classifier: MlpSpec
    discriminator: MlpSpec

    def __post_init__(self):
        d_f = self.extractor.output_dim
        if self.classifier.input_dim != d_f:
            raise ValueError(
                f"classifier input {self.classifier.input_dim} != feature dim {d_f}"
            )
        if self.discriminator.input_dim != d_f:
            raise ValueError(
                f"discriminator input {self.discriminator.input_dim} != feature dim {d_f}"
            )
        if self.discriminator.output_dim != 2:
            raise ValueError(
                f"discriminator must output 2 logits, got {self.discriminator.output_dim}"
            )

    @property
    def feature_dim(self) -> int:
        return self.extractor.output_dim

    @property
    def class_count(self) -> int:
        return self.classifier.output_dim

    @property
    def param_count(self) -> int:
        """Length of a ``Network``'s flat parameter vector: every weight and bias."""
        return sum(
            (fan_in + 1) * fan_out
            for part in (self.extractor, self.classifier, self.discriminator)
            for fan_in, fan_out in part.layer_dims
        )


def default_network_spec(
    input_dim: int,
    class_count: int,
    feature_dims: tuple[int, ...] = (64, 32),
    classifier_hidden: tuple[int, ...] = (),
    discriminator_hidden: tuple[int, ...] = (32,),
) -> NetworkSpec:
    """Desk-scale default: F = [in -> 64 -> 32], C = [32 -> K], D = [32 -> 32 -> 2]."""
    if len(feature_dims) < 1:
        raise ValueError("feature_dims must name at least the feature dimension")
    d_f = feature_dims[-1]
    return NetworkSpec(
        extractor=MlpSpec(input_dim, tuple(feature_dims[:-1]), d_f),
        classifier=MlpSpec(d_f, tuple(classifier_hidden), class_count),
        discriminator=MlpSpec(d_f, tuple(discriminator_hidden), 2),
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
    """Cached forward pass of one part: input, pre-activations, activations.

    Enough to run exact backprop without re-running the forward pass.
    """

    x: np.ndarray
    pre: list[np.ndarray]
    act: list[np.ndarray]

    @property
    def output(self) -> np.ndarray:
        return self.act[-1]


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
        dims = [(n, i, d) for n in _PARTS for i, d in enumerate(getattr(spec, n).layer_dims)]
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

    def _forward_part(self, name: str, x: np.ndarray, activate_last: bool) -> PartTrace:
        part_spec: MlpSpec = getattr(self.spec, name)
        x = as_matrix(x, f"{name} input")
        if x.shape[1] != part_spec.input_dim:
            raise ValueError(
                f"{name} expects input dim {part_spec.input_dim}, got shape {x.shape}"
            )
        require_finite(x, f"{name} input")
        layers = self.parts[name]
        pre, act = [], []
        a = x
        for i, layer in enumerate(layers):
            z = a @ layer.w + layer.b
            pre.append(z)
            if activate_last or i < len(layers) - 1:
                a = np.maximum(z, 0.0)
            else:
                a = z
            act.append(a)
        require_finite(a, f"{name} output")
        return PartTrace(x=x, pre=pre, act=act)

    def forward_features(self, x: np.ndarray) -> tuple[np.ndarray, PartTrace]:
        trace = self._forward_part("extractor", x, activate_last=True)
        return trace.output, trace

    def forward_classifier(self, features: np.ndarray) -> tuple[np.ndarray, PartTrace]:
        trace = self._forward_part("classifier", features, activate_last=False)
        return trace.output, trace

    def forward_discriminator(self, features: np.ndarray) -> tuple[np.ndarray, PartTrace]:
        trace = self._forward_part("discriminator", features, activate_last=False)
        return trace.output, trace

    # -- backward --------------------------------------------------------

    def backward(self, part: str, trace: PartTrace, dout: np.ndarray) -> np.ndarray:
        """Accumulate one part's gradients; return the gradient w.r.t. its input.

        ``trace`` is that part's forward trace and ``dout`` the gradient w.r.t.
        its output. The extractor applies the activation after its last layer,
        the two heads do not.
        """
        layers = self.parts[part]
        activate_last = part == "extractor"
        if dout.shape != trace.act[-1].shape:
            raise ValueError(
                f"{part} upstream gradient shape {dout.shape} != output {trace.act[-1].shape}"
            )
        g = dout
        for i in reversed(range(len(layers))):
            if activate_last or i < len(layers) - 1:
                g = g * (trace.pre[i] > 0.0)
            inp = trace.act[i - 1] if i > 0 else trace.x
            layers[i].gw += inp.T @ g
            layers[i].gb += g.sum(axis=0)
            g = g @ layers[i].w.T
        return g

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
