import json
import struct

import numpy as np
import pytest

from neurodiff import autodiff as ad
from neurodiff.network import MLP, MLPSpec


class TestInit:
    def test_no_hidden_layers_is_single_linear(self):
        mlp = MLP.init(MLPSpec(1, (), 1, seed=0))
        assert mlp.n_parameters() == 2

    def test_same_seed_identical(self):
        a = MLP.init(MLPSpec(2, (16, 16), 1, seed=42))
        b = MLP.init(MLPSpec(2, (16, 16), 1, seed=42))
        assert a.flat_params().tobytes() == b.flat_params().tobytes()

    def test_different_seed_differs(self):
        a = MLP.init(MLPSpec(2, (16,), 1, seed=1))
        b = MLP.init(MLPSpec(2, (16,), 1, seed=2))
        assert a.flat_params().tobytes() != b.flat_params().tobytes()

    def test_parameter_count_formula(self):
        mlp = MLP.init(MLPSpec(2, (32, 32), 1, seed=0))
        assert mlp.n_parameters() == 32 * 3 + 32 * 33 + 1 * 33

    def test_biases_zero_weights_in_xavier_bound(self):
        mlp = MLP.init(MLPSpec(3, (8,), 2, seed=5))
        for b in mlp.biases:
            assert np.all(b == 0.0)
        bound0 = np.sqrt(6.0 / (3 + 8))
        assert np.all(np.abs(mlp.weights[0]) <= bound0)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            MLPSpec(0, (4,), 1)
        with pytest.raises(ValueError):
            MLPSpec(1, (4,), 1, activation="relu")


class TestForward:
    def test_zero_weights_give_zero_output(self):
        mlp = MLP.init(MLPSpec(2, (4,), 1, seed=0))
        for k in range(len(mlp.weights)):
            mlp.weights[k] = np.zeros_like(mlp.weights[k])
        out = mlp.forward(np.ones((3, 2)))
        assert np.all(out.value == 0.0)

    def test_identity_linear_layer(self):
        mlp = MLP.init(MLPSpec(2, (), 2, seed=0))
        mlp.weights[0] = np.eye(2)
        x = np.array([[1.5, -0.5], [2.0, 0.25]])
        np.testing.assert_array_equal(mlp.forward(x).value, x)

    def test_dimension_mismatch_rejected(self):
        mlp = MLP.init(MLPSpec(3, (4,), 1, seed=0))
        with pytest.raises(ad.ShapeError):
            mlp.forward(np.ones((5, 2)))

    def test_weight_gradient_matches_fd(self):
        mlp = MLP.init(MLPSpec(2, (8, 8), 1, seed=3))
        xb = np.random.Generator(np.random.Philox(key=(1, 1))).uniform(
            -1, 1, (6, 2))
        pn = mlp.param_nodes()
        g = ad.backward(ad.reduce_sum(mlp.forward(xb, pn)), [pn[0]])[0]
        h = 1e-6
        w = mlp.weights[0][0, 1]
        mlp.weights[0][0, 1] = w + h
        up = mlp.forward(xb).value.sum()
        mlp.weights[0][0, 1] = w - h
        dn = mlp.forward(xb).value.sum()
        mlp.weights[0][0, 1] = w
        assert g.value[0, 1] == pytest.approx((up - dn) / (2 * h), rel=1e-6)

    def test_batch_equals_per_sample(self):
        mlp = MLP.init(MLPSpec(3, (8,), 2, seed=7))
        rng = np.random.Generator(np.random.Philox(key=(2, 2)))
        xb = rng.uniform(-1, 1, (10, 3))
        batch_out = mlp.forward(xb).value
        for i in range(10):
            single = mlp.forward(xb[i:i + 1]).value
            np.testing.assert_allclose(single, batch_out[i:i + 1], atol=1e-14)

    def test_second_input_derivative_matches_fd(self):
        mlp = MLP.init(MLPSpec(1, (8, 8), 1, seed=11))
        xv = 0.3
        x = ad.variable(np.array([[xv]]))
        d2 = ad.diff(mlp.forward(x), x, 2)
        h = 1e-4
        f = lambda t: mlp.forward(np.array([[t]])).value[0, 0]
        fd = (f(xv + h) - 2 * f(xv) + f(xv - h)) / h ** 2
        assert d2.value[0, 0] == pytest.approx(fd, rel=1e-5)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        mlp = MLP.init(MLPSpec(2, (16, 8), 3, activation="sin", seed=13))
        path = tmp_path / "net.ckpt"
        mlp.save(path)
        loaded = MLP.load(path)
        assert loaded.spec == mlp.spec
        assert loaded.flat_params().tobytes() == mlp.flat_params().tobytes()
        xb = np.linspace(-1, 1, 8).reshape(4, 2)
        assert (loaded.forward(xb).value.tobytes()
                == mlp.forward(xb).value.tobytes())

    def test_f32_round_trip_keeps_dtype_and_bits(self, tmp_path):
        mlp = MLP.init(MLPSpec(2, (16, 8), 3, seed=13)).astype(np.float32)
        path = tmp_path / "net.ckpt"
        mlp.save(path)
        loaded = MLP.load(path)
        assert all(a.dtype == np.float32 for a in loaded.weights + loaded.biases)
        assert loaded.flat_params().tobytes() == mlp.flat_params().tobytes()
        xb = np.linspace(-1, 1, 8).reshape(4, 2)
        assert loaded.forward(xb).value.dtype == np.float32

    def test_version_1_loads_as_float64(self, tmp_path):
        mlp = MLP.init(MLPSpec(1, (4,), 2, seed=3))
        header = json.dumps({"input_dim": 1, "hidden_dims": [4],
                             "output_dim": 2, "activation": "tanh",
                             "seed": 3}).encode()
        flat = mlp.flat_params().astype("<f8")
        path = tmp_path / "v1.ckpt"
        path.write_bytes(b"NDCK" + struct.pack("<BI", 1, len(header)) + header
                         + struct.pack("<Q", flat.size) + flat.tobytes())
        loaded = MLP.load(path)
        assert loaded.spec == mlp.spec
        assert all(a.dtype == np.float64 for a in loaded.weights + loaded.biases)
        assert loaded.flat_params().tobytes() == mlp.flat_params().tobytes()

    def test_truncated_file_rejected(self, tmp_path):
        mlp = MLP.init(MLPSpec(1, (4,), 1, seed=0))
        path = tmp_path / "net.ckpt"
        mlp.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 16])
        with pytest.raises(ValueError, match="truncated"):
            MLP.load(path)

    def test_every_truncation_names_itself(self, tmp_path):
        mlp = MLP.init(MLPSpec(1, (4,), 1, seed=0))
        path = tmp_path / "net.ckpt"
        mlp.save(path)
        blob = path.read_bytes()
        hlen = struct.unpack_from("<I", blob, 5)[0]
        parts = {0: "prefix", 4: "prefix", 8: "prefix", 9: "header",
                 9 + hlen - 1: "header", 9 + hlen: "parameter count",
                 9 + hlen + 7: "parameter count",
                 9 + hlen + 8: "parameter block",
                 len(blob) - 1: "parameter block"}
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match="truncated") as e:
                MLP.load(path)
            if cut in parts:
                assert parts[cut] in str(e.value), (cut, e.value)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "net.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            MLP.load(path)

    HEADER = {"input_dim": 1, "hidden_dims": [4], "output_dim": 1,
              "activation": "tanh", "seed": 0, "dtype": "<f8"}

    @pytest.mark.parametrize("version, header, match", [
        (9, HEADER, "unsupported version 9"),
        (2, b"{not json", "malformed header"),
        (2, {k: v for k, v in HEADER.items() if k != "seed"},
         "missing field 'seed'"),
        (2, {**HEADER, "dtype": "<f2"}, "unsupported dtype '<f2'"),
        (2, {**HEADER, "hidden_dims": [5]},
         r"parameter count 13 does not match spec \(16\)"),
    ], ids=["version", "header", "field", "dtype", "count"])
    def test_malformed_checkpoint_rejected(self, tmp_path, version, header,
                                           match):
        flat = MLP.init(MLPSpec(1, (4,), 1, seed=0)).flat_params()
        if isinstance(header, dict):
            header = json.dumps(header).encode()
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NDCK" + struct.pack("<BI", version, len(header))
                         + header + struct.pack("<Q", flat.size)
                         + flat.astype("<f8").tobytes())
        with pytest.raises(ValueError, match=match):
            MLP.load(path)

    def test_activation_tag_preserved(self, tmp_path):
        mlp = MLP.init(MLPSpec(1, (4,), 1, activation="softplus", seed=0))
        path = tmp_path / "net.ckpt"
        mlp.save(path)
        assert MLP.load(path).spec.activation == "softplus"
