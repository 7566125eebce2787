"""Weight container: layer enumeration, file format, random initialization.

File format: an uncompressed numpy `.npz` archive (`np.savez`). Member
`fingerprint` is a 0-d string array holding the config fingerprint, which
`load` requires to be non-empty; every other member is one finite float32
tensor, named by its layer path. `load` reads it with `allow_pickle=False`.
"""

from __future__ import annotations

import math
import zipfile

import numpy as np

from ..errors import InvalidConfig, InvalidInput
from .config import ModelConfig

_CONV_KERNEL = 3  # time x freq kernel size of every 2-D convolution


def required_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical layer-path -> shape map for a configuration.

    Iteration order is the member order of the container file.
    """
    z = cfg.zones
    c = cfg.embed_channels
    enc = cfg.encoder_channels
    fbh = cfg.fullband_hidden
    h = cfg.subband_hidden
    ff = cfg.ff_dim
    comp = c // cfg.tac_compression
    cf = c * cfg.bins
    k = _CONV_KERNEL

    shapes: dict[str, tuple[int, ...]] = {}

    for name, in_ch in (("spec", 2 * z), ("lps", z), ("ipd", 2)):
        shapes[f"enc_{name}.conv1.w"] = (enc, in_ch, k, k)
        shapes[f"enc_{name}.conv1.b"] = (enc,)
        shapes[f"enc_{name}.conv2.w"] = (enc, enc, k, k)
        shapes[f"enc_{name}.conv2.b"] = (enc,)
    shapes["merge.w"] = (c, 3 * enc, 1, 1)
    shapes["merge.b"] = (c,)

    for i in range(cfg.n_full_sub):
        p = f"block{i}"
        shapes[f"{p}.fullband.in_proj.w"] = (fbh, cf)
        shapes[f"{p}.fullband.in_proj.b"] = (fbh,)
        shapes[f"{p}.fullband.lstm.w_ih"] = (4 * fbh, fbh)
        shapes[f"{p}.fullband.lstm.w_hh"] = (4 * fbh, fbh)
        shapes[f"{p}.fullband.lstm.b_ih"] = (4 * fbh,)
        shapes[f"{p}.fullband.lstm.b_hh"] = (4 * fbh,)
        shapes[f"{p}.fullband.out_proj.w"] = (cf, fbh)
        shapes[f"{p}.fullband.out_proj.b"] = (cf,)

        shapes[f"{p}.tac.linear_a.w"] = (comp, c)
        shapes[f"{p}.tac.linear_a.b"] = (comp,)
        shapes[f"{p}.tac.linear_b.w"] = (comp, c)
        shapes[f"{p}.tac.linear_b.b"] = (comp,)
        shapes[f"{p}.tac.linear_c.w"] = (c, 2 * comp)
        shapes[f"{p}.tac.linear_c.b"] = (c,)

        shapes[f"{p}.subband.conv_in.w"] = (h, c)
        shapes[f"{p}.subband.conv_in.b"] = (h,)
        for j in range(cfg.conformer_layers):
            q = f"{p}.subband.layer{j}"
            for ln in ("ln_ff1", "ln_att", "ln_conv", "ln_ff2", "ln_out"):
                shapes[f"{q}.{ln}.g"] = (h,)
                shapes[f"{q}.{ln}.b"] = (h,)
            for ffname in ("ff1", "ff2"):
                shapes[f"{q}.{ffname}.w1"] = (ff, h)
                shapes[f"{q}.{ffname}.b1"] = (ff,)
                shapes[f"{q}.{ffname}.w2"] = (h, ff)
                shapes[f"{q}.{ffname}.b2"] = (h,)
            for proj in ("wq", "wk", "wv", "wo"):
                shapes[f"{q}.att.{proj}"] = (h, h)
            for bias in ("bq", "bk", "bv", "bo"):
                shapes[f"{q}.att.{bias}"] = (h,)
            shapes[f"{q}.conv.pw1.w"] = (2 * h, h)
            shapes[f"{q}.conv.pw1.b"] = (2 * h,)
            shapes[f"{q}.conv.dw.w"] = (h, k)
            shapes[f"{q}.conv.dw.b"] = (h,)
            shapes[f"{q}.conv.pw2.w"] = (h, h)
            shapes[f"{q}.conv.pw2.b"] = (h,)
        shapes[f"{p}.subband.proj_out.w"] = (c, h)
        shapes[f"{p}.subband.proj_out.b"] = (c,)

    shapes["decoder.w"] = (z, c, k, k)
    shapes["decoder.b"] = (z,)
    shapes["head_speech.w"] = (z, z)
    shapes["head_speech.b"] = (z,)
    shapes["head_noise.w"] = (z, z)
    shapes["head_noise.b"] = (z,)
    return shapes


def count_params(cfg: ModelConfig) -> int:
    """Total number of weights (exact, derived from the layer map)."""
    return sum(int(np.prod(s)) for s in required_shapes(cfg).values())


class ModelWeights:
    """Named float32 tensor map plus its config fingerprint, with a bit-exact file format."""

    def __init__(self, tensors: dict[str, np.ndarray], fingerprint: str):
        self.tensors = {
            name: np.ascontiguousarray(t, dtype=np.float32) for name, t in tensors.items()
        }
        self.fingerprint = fingerprint

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def validate(self, cfg: ModelConfig) -> None:
        """Check the container was written for `cfg`.

        The tensor map must match exactly (no missing, no extras), and the
        stored fingerprint must equal the config's.
        """
        expected = required_shapes(cfg)
        missing = sorted(set(expected) - set(self.tensors))
        extra = sorted(set(self.tensors) - set(expected))
        if missing or extra:
            raise InvalidConfig(
                f"weight container does not match config: missing={missing[:5]}, "
                f"extra={extra[:5]}"
            )
        for name, shape in expected.items():
            got = self.tensors[name].shape
            if tuple(got) != tuple(shape):
                raise InvalidConfig(f"{name}: expected shape {shape}, got {tuple(got)}")
        if self.fingerprint != cfg.fingerprint():
            raise InvalidConfig(
                f"weight container fingerprint {self.fingerprint} does not match "
                f"the config's {cfg.fingerprint()}"
            )

    def save(self, path) -> None:
        # an open file, because np.savez appends ".npz" to a path that lacks it
        with open(path, "wb") as fh:
            np.savez(fh, fingerprint=np.array(self.fingerprint), **self.tensors)

    @classmethod
    def load(cls, path) -> "ModelWeights":
        try:
            archive = np.load(path, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):  # a bare .npy
                raise ValueError("a single array, not an archive")
            with archive:
                # a member not stored as .npy reads back as bytes
                members = {name: np.asarray(archive[name]) for name in archive.files}
        except (ValueError, OSError, EOFError, zipfile.BadZipFile) as exc:
            raise InvalidInput(f"{path}: not a weight container ({exc})") from None
        fingerprint = members.pop("fingerprint", None)
        if (fingerprint is None or fingerprint.ndim or fingerprint.dtype.kind != "U"
                or not fingerprint.item()):
            raise InvalidInput(f"{path}: no fingerprint string")
        for name, tensor in members.items():
            if tensor.dtype != np.float32:
                raise InvalidInput(f"{path}: {name} is {tensor.dtype}, not float32")
            if not np.isfinite(tensor).all():
                raise InvalidInput(f"{path}: {name} holds non-finite values")
        return cls(members, fingerprint=fingerprint.item())


def init_random(cfg: ModelConfig, seed: int) -> ModelWeights:
    """Deterministic random weights: uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)).

    A weight's fan-in is the product of its dimensions after the first, and
    bias `layer.bX` takes the bound of weight `layer.wX`. Layer-norm gains
    are 1 and all layer-norm offsets 0. Same seed and config give a
    bit-identical container.
    """
    rng = np.random.default_rng(seed)
    shapes = required_shapes(cfg)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        layer, leaf = name.rsplit(".", 1)
        if ".ln_" in layer:
            tensors[name] = (np.ones if leaf == "g" else np.zeros)(shape, dtype=np.float32)
            continue
        weight_shape = shapes[f"{layer}.w{leaf[1:]}"] if len(shape) == 1 else shape
        bound = 1.0 / np.sqrt(math.prod(weight_shape[1:]))
        tensors[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
    return ModelWeights(tensors, fingerprint=cfg.fingerprint())
