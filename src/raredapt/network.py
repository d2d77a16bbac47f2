"""Three-part MLP with exact manual backpropagation.

The network splits into a feature extractor, a label classifier head, and a
two-way domain discriminator head. The adversarial path routes features into
the discriminator through a gradient reversal layer: identity on the forward
pass, negate-and-scale on the backward pass, so the extractor is pushed to
*maximize* the discriminator's loss while the discriminator minimizes it.

Backprop is written out by hand against cached forward traces. The fixed
architecture makes this short, and it keeps the reversal sign-flip explicit
and auditable; every gradient in here is validated against central finite
differences in the test suite.

Parameter layout: all weights and biases of a ``Network`` live in one
contiguous float64 vector ``params`` and their gradients in a second one,
``grads``, of the same length. Every weight matrix comes first, in
``parameters()`` order, then every bias in the same order, so the weights are
the leading ``weight_size`` elements. Each ``Layer.w/b/gw/gb`` is a reshaped
view into those vectors: forward and backward read and accumulate through the
views, while whole-model operations (the optimizer step, zeroing gradients,
snapshots, loading state) are single vector operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    activation: str = "relu"

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(d < 1 for d in dims):
            raise ValueError(f"all layer dims must be >= 1, got {dims}")
        if self.activation != "relu":
            raise ValueError(f"unsupported activation {self.activation!r}")

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
    w: np.ndarray
    b: np.ndarray
    gw: np.ndarray = field(init=False)
    gb: np.ndarray = field(init=False)

    def __post_init__(self):
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)


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


def grl_forward(x: np.ndarray) -> np.ndarray:
    """Gradient reversal layer forward pass: the identity, bit for bit."""
    return x


def grl_backward(upstream: np.ndarray, scale: float) -> np.ndarray:
    """Gradient reversal layer backward pass: exactly -scale * upstream."""
    if scale < 0:
        raise ValueError(f"reversal scale must be >= 0, got {scale}")
    return -scale * np.asarray(upstream)


class Network:
    """Parameters plus forward/backward ops for the three-part model.

    Gradients accumulate into per-layer buffers across backward calls until
    ``zero_grads``; a training step may therefore combine several partial
    backward passes (e.g. separate source and target batches).

    The constructor copies the given layers' arrays into the flat ``params``
    vector (see the module docstring) and rebinds each layer's ``w``/``b``/
    ``gw``/``gb`` to views into ``params`` and ``grads``. Write parameters in
    place (``layer.w[...] = ...``): assigning a new array to ``layer.w``
    detaches it from the buffer the optimizer steps.
    """

    def __init__(self, spec: NetworkSpec, parts: dict[str, list[Layer]]):
        self.spec = spec
        self.parts = parts
        layers = list(self.parameters())
        arrays = [(f"{n}.{i}.{a}", layer, a) for a in ("w", "b") for n, i, layer in layers]
        sizes = [np.size(getattr(layer, a)) for _, layer, a in arrays]
        self.weight_size = sum(sizes[: len(layers)])
        self.params = np.empty(sum(sizes))
        self.grads = np.zeros(sum(sizes))
        slots = {}
        start = 0
        for (key, layer, attr), size in zip(arrays, sizes):
            value = np.asarray(getattr(layer, attr), dtype=np.float64)
            span = slice(start, start + size)
            self.params[span] = value.ravel()
            setattr(layer, attr, self.params[span].reshape(value.shape))
            setattr(layer, "g" + attr, self.grads[span].reshape(value.shape))
            slots[key] = (span, value.shape)
            start += size
        # '<part>.<i>.<w|b>' -> (slice of params/grads, shape), in parameters() order
        self.slots = {
            f"{n}.{i}.{a}": slots[f"{n}.{i}.{a}"] for n, i, _ in layers for a in ("w", "b")
        }

    @classmethod
    def initialize(cls, spec: NetworkSpec, rng: np.random.Generator) -> "Network":
        """He-initialized weights, zero biases; draw order is fixed per part."""
        parts: dict[str, list[Layer]] = {}
        for name in _PARTS:
            part_spec: MlpSpec = getattr(spec, name)
            layers = []
            for fan_in, fan_out in part_spec.layer_dims:
                w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
                layers.append(Layer(w=w, b=np.zeros(fan_out)))
            parts[name] = layers
        return cls(spec, parts)

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

    def _backward_part(
        self, name: str, trace: PartTrace, dout: np.ndarray, activate_last: bool
    ) -> np.ndarray:
        """Accumulate this part's gradients; return the gradient w.r.t. its input."""
        layers = self.parts[name]
        if dout.shape != trace.act[-1].shape:
            raise ValueError(
                f"{name} upstream gradient shape {dout.shape} != output {trace.act[-1].shape}"
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

    def backward_discriminator(self, trace: PartTrace, dlogits: np.ndarray) -> np.ndarray:
        """Backprop the discriminator head only.

        Accumulates the head's own gradients and returns the gradient w.r.t.
        its input features *before* the reversal layer; pass the result through
        :func:`grl_backward` before feeding it into the extractor.
        """
        return self._backward_part("discriminator", trace, dlogits, activate_last=False)

    def backward(
        self,
        features_trace: PartTrace,
        classifier_trace: PartTrace | None = None,
        dlogits_classifier: np.ndarray | None = None,
        discriminator_trace: PartTrace | None = None,
        dlogits_discriminator: np.ndarray | None = None,
        discriminator_rows: np.ndarray | None = None,
        grl_scale: float = 1.0,
        dfeatures: np.ndarray | None = None,
    ) -> None:
        """Composite backward pass for one batch.

        The classifier path accumulates unmodified; the discriminator path is
        negated and scaled by ``grl_scale`` on its way into the extractor.
        ``discriminator_rows`` maps discriminator batch rows onto rows of the
        extractor batch when only a routed subset reached the discriminator;
        it must be strictly increasing, as ``route_delta`` produces it.
        ``dfeatures`` adds an extra gradient directly on the features (used by
        feature-level alignment losses). At least one source must be present.
        """
        n = features_trace.output.shape[0]
        dfeat = np.zeros_like(features_trace.output)
        got_term = False
        if dlogits_classifier is not None:
            if classifier_trace is None:
                raise ValueError("classifier gradient given without a classifier trace")
            dfeat += self._backward_part(
                "classifier", classifier_trace, dlogits_classifier, activate_last=False
            )
            got_term = True
        if dlogits_discriminator is not None:
            if discriminator_trace is None:
                raise ValueError("discriminator gradient given without a discriminator trace")
            g = self.backward_discriminator(discriminator_trace, dlogits_discriminator)
            if discriminator_rows is None:
                rows = np.arange(g.shape[0])
            else:
                rows = np.asarray(discriminator_rows, dtype=np.int64)
            if rows.shape[0] != g.shape[0]:
                raise ValueError(
                    f"row map length {rows.shape[0]} != discriminator batch {g.shape[0]}"
                )
            if rows.size and (rows.min() < 0 or rows.max() >= n):
                raise ValueError(f"discriminator row map out of range [0, {n})")
            # a fancy-index add applies each row once, so rows must be unique
            if (rows[1:] <= rows[:-1]).any():
                raise ValueError("discriminator row map must be strictly increasing")
            dfeat[rows] += grl_backward(g, grl_scale)
            got_term = True
        if dfeatures is not None:
            dfeat += dfeatures
            got_term = True
        if not got_term:
            raise ValueError("backward needs at least one gradient source")
        self._backward_part("extractor", features_trace, dfeat, activate_last=True)

    # -- parameter access --------------------------------------------------

    def zero_grads(self) -> None:
        self.grads.fill(0.0)

    def parameters(self) -> Iterator[tuple[str, int, Layer]]:
        """Yield (part name, layer index, layer) in a fixed, documented order."""
        for name in _PARTS:
            for i, layer in enumerate(self.parts[name]):
                yield name, i, layer

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of all weights/biases keyed '<part>.<i>.<w|b>'.

        The values are views into one copy of ``params``.
        """
        flat = self.params.copy()
        return {key: flat[span].reshape(shape) for key, (span, shape) in self.slots.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Write a ``snapshot``-style dict into ``params``; nothing is written
        unless every key is present, known and of the right shape."""
        values = []
        for key, (span, shape) in self.slots.items():
            if key not in state:
                raise KeyError(f"missing parameter {key}")
            arr = np.asarray(state[key], dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"shape mismatch for {key}: {arr.shape} != {shape}")
            values.append((span, arr))
        extra = set(state) - set(self.slots)
        if extra:
            raise ValueError(f"unexpected parameters: {sorted(extra)}")
        for span, arr in values:
            self.params[span] = arr.ravel()
