"""Feed-forward networks whose forward pass is an autodiff graph.

The forward output is differentiable both with respect to the input batch
(for equation residuals) and with respect to the parameters (for training).
Parameters live as plain numpy arrays on the MLP; each forward pass wraps
them in graph nodes so per-step graphs stay disposable.
"""

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad

_MAGIC = b"NDCK"
_VERSION = 2
_DTYPES = {"<f4": np.float32, "<f8": np.float64}


def _check_size(blob, end, part):
    """Raise unless the checkpoint ``blob`` holds its ``part`` up to ``end``."""
    if len(blob) < end:
        raise ValueError(f"checkpoint: truncated {part} "
                         f"({len(blob)} of at least {end} bytes)")


_ACTIVATIONS = {
    "tanh": ad.tanh,
    "sin": ad.sin,
    "softplus": lambda x: ad.log(1.0 + ad.exp(x)),
}


@dataclass(frozen=True)
class MLPSpec:
    input_dim: int
    hidden_dims: tuple
    output_dim: int
    activation: str = "tanh"
    seed: int = 0

    def __post_init__(self):
        dims = [self.input_dim, *self.hidden_dims, self.output_dim]
        if any(d < 1 for d in dims):
            raise ValueError(f"all dimensions must be >= 1, got {dims}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))

    @property
    def dims(self):
        return (self.input_dim, *self.hidden_dims, self.output_dim)


class MLP:
    """Multilayer perceptron: weights, biases, and graph-building forward."""

    def __init__(self, spec, weights, biases):
        self.spec = spec
        self.weights = weights
        self.biases = biases

    @classmethod
    def init(cls, spec):
        """Xavier-uniform weights, zero biases, deterministic under seed."""
        rng = np.random.Generator(np.random.Philox(key=spec.seed))
        dims = spec.dims
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
            weights.append(w)
            biases.append(np.zeros(fan_out))
        return cls(spec, weights, biases)

    def n_parameters(self):
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def param_arrays(self):
        """The parameter arrays in graph order: W0, b0 as a row, W1, ..."""
        return [a for w, b in zip(self.weights, self.biases)
                for a in (w, b.reshape(1, -1))]

    def param_nodes(self, requires_grad=True):
        """Wrap current parameter arrays as graph variables (W0, b0, W1, ...)."""
        return [ad.variable(a, requires_grad=requires_grad)
                for a in self.param_arrays()]

    def forward(self, batch, params=None):
        """Run the network on an N x input_dim batch node (or array).

        ``params`` is the node list from ``param_nodes()``; when omitted the
        parameters are wrapped as non-trainable constants.
        """
        if not isinstance(batch, ad.Node):
            batch = ad.constant(batch, self.weights[0].dtype)
        if batch.value.ndim != 2 or batch.value.shape[1] != self.spec.input_dim:
            raise ad.ShapeError(
                f"batch shape {batch.value.shape} does not match "
                f"input_dim {self.spec.input_dim}"
            )
        if params is None:
            params = self.param_nodes(requires_grad=False)
        act = _ACTIVATIONS[self.spec.activation]
        h = batch
        n_layers = len(self.weights)
        for k in range(n_layers):
            w, b = params[2 * k], params[2 * k + 1]
            z = ad.matmul(h, ad.transpose(w)) + b
            h = act(z) if k < n_layers - 1 else z
        return h

    def astype(self, dtype):
        """This network with its parameters cast to ``dtype``."""
        return MLP(self.spec,
                   [w.astype(dtype, copy=False) for w in self.weights],
                   [b.astype(dtype, copy=False) for b in self.biases])

    def copy(self):
        return MLP(self.spec,
                   [w.copy() for w in self.weights],
                   [b.copy() for b in self.biases])

    def flat_params(self):
        return np.concatenate(
            [np.ravel(a) for pair in zip(self.weights, self.biases) for a in pair]
        )

    def save(self, path):
        flat = self.flat_params()
        stored = flat.dtype.newbyteorder("<")
        header = json.dumps({
            "input_dim": self.spec.input_dim,
            "hidden_dims": list(self.spec.hidden_dims),
            "output_dim": self.spec.output_dim,
            "activation": self.spec.activation,
            "seed": self.spec.seed,
            "dtype": stored.str,
        }).encode()
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<B", _VERSION))
            f.write(struct.pack("<I", len(header)))
            f.write(header)
            f.write(struct.pack("<Q", flat.size))
            f.write(flat.astype(stored).tobytes())

    @classmethod
    def load(cls, path):
        """Read a checkpoint; parameters keep the dtype they were saved in."""
        with open(path, "rb") as f:
            blob = f.read()
        if blob[:4] != _MAGIC[:len(blob)]:
            raise ValueError("checkpoint: bad magic header")
        _check_size(blob, 9, "prefix")
        if blob[4] not in (1, _VERSION):
            raise ValueError(f"checkpoint: unsupported version {blob[4]}")
        off = 5
        (hlen,) = struct.unpack_from("<I", blob, off)
        off += 4
        _check_size(blob, off + hlen, "header")
        try:
            header = json.loads(blob[off:off + hlen].decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ValueError(f"checkpoint: malformed header ({e})") from e
        off += hlen
        for key in ("input_dim", "hidden_dims", "output_dim", "activation", "seed"):
            if key not in header:
                raise ValueError(f"checkpoint: missing field {key!r}")
        stored = header.get("dtype", "<f8")  # version 1 stored only "<f8"
        if stored not in _DTYPES:
            raise ValueError(f"checkpoint: unsupported dtype {stored!r}")
        dtype = _DTYPES[stored]
        spec = MLPSpec(header["input_dim"], tuple(header["hidden_dims"]),
                       header["output_dim"], header["activation"], header["seed"])
        _check_size(blob, off + 8, "parameter count")
        (count,) = struct.unpack_from("<Q", blob, off)
        off += 8
        _check_size(blob, off + count * np.dtype(dtype).itemsize,
                    "parameter block")
        flat = np.frombuffer(blob, dtype=stored, count=count, offset=off)
        layers = list(zip(spec.dims[1:], spec.dims[:-1]))  # (fan_out, fan_in)
        expected = sum(o * i + o for o, i in layers)
        if flat.size != expected:
            raise ValueError(
                f"checkpoint: parameter count {flat.size} does not match spec "
                f"({expected})"
            )
        weights, biases, pos = [], [], 0
        for o, i in layers:
            weights.append(flat[pos:pos + o * i].reshape(o, i).astype(dtype))
            pos += o * i
            biases.append(flat[pos:pos + o].astype(dtype))
            pos += o
        return cls(spec, weights, biases)
