"""Versioned binary checkpoints: named parameter tensors plus a config echo.

Layout (little-endian): magic "PNMACKPT1", u32 config-echo length + UTF-8
bytes, u32 section count, then per section u32 name length + bytes, u32 rank,
u32 extents, f32 payload; a trailing sha256 digest covers everything before
it.  The digest hex doubles as the checkpoint identity that memory files
reference.  ``load_model`` also requires the sections to form one model.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig, config_from_echo
from .crf import CrfParams
from .encoder import EncoderParams
from .errors import ConfigError, FormatError
from .neighborhood import NeighborhoodParams

CHECKPOINT_MAGIC = b"PNMACKPT1"

ENCODER_PREFIXES = ("embed.", "lstm", "conn")


def is_encoder_param(name: str) -> bool:
    return name.startswith(ENCODER_PREFIXES)


def checkpoint_bytes(params: dict[str, np.ndarray], config_echo: str) -> bytes:
    payload = bytearray()
    payload += CHECKPOINT_MAGIC
    echo = config_echo.encode("utf-8")
    payload += struct.pack("<I", len(echo))
    payload += echo
    payload += struct.pack("<I", len(params))
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f4")
        name_b = name.encode("utf-8")
        payload += struct.pack("<I", len(name_b))
        payload += name_b
        payload += struct.pack("<I", arr.ndim)
        for ext in arr.shape:
            payload += struct.pack("<I", ext)
        payload += arr.tobytes()
    digest = hashlib.sha256(bytes(payload)).digest()
    payload += digest
    return bytes(payload)


def save_checkpoint(path: str, params: dict[str, np.ndarray], config_echo: str) -> str:
    """Write the checkpoint; returns its content digest (hex)."""
    blob = checkpoint_bytes(params, config_echo)
    with open(path, "wb") as fh:
        fh.write(blob)
    return blob[-32:].hex()


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], str, str]:
    """Read (params, config echo, digest hex); validates magic and digest."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 32:
        raise FormatError(f"{path}: truncated checkpoint")
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        if blob[:8] == CHECKPOINT_MAGIC[:8]:
            raise FormatError(f"{path}: unsupported checkpoint format version")
        raise FormatError(f"{path}: not a checkpoint file (bad magic)")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise FormatError(f"{path}: checkpoint content digest mismatch")
    off = len(CHECKPOINT_MAGIC)

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(body):
            raise FormatError(f"{path}: truncated checkpoint")
        out = body[off : off + n]
        off += n
        return out

    def text(raw: bytes, what: str) -> str:
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: {what} is not UTF-8") from None

    echo_len = struct.unpack("<I", take(4))[0]
    echo = text(take(echo_len), "config echo")
    n_sections = struct.unpack("<I", take(4))[0]
    params: dict[str, np.ndarray] = {}
    for s in range(n_sections):
        name_len = struct.unpack("<I", take(4))[0]
        name = text(take(name_len), f"name of section {s}")
        rank = struct.unpack("<I", take(4))[0]
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(rank))
        raw = take(4 * math.prod(shape))  # Python ints: no int64 wrap
        try:
            arr = np.frombuffer(raw, dtype="<f4").reshape(shape)
        except ValueError:  # an empty section whose other extents overflow
            raise FormatError(f"{path}: section {name!r} has unrepresentable shape "
                              f"{shape}") from None
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: non-finite value in section {name!r}")
        params[name] = arr.copy()
    if off != len(body):
        raise FormatError(f"{path}: trailing bytes in checkpoint")
    return params, echo, digest.hex()


@dataclass
class Model:
    """In-RAM form of a checkpoint."""

    encoder: EncoderParams
    crf: CrfParams
    nbr: NeighborhoodParams | None
    config: TrainConfig
    digest: str = ""

    def params(self) -> dict[str, np.ndarray]:
        out = self.encoder.to_dict()
        out.update(crf_to_dict(self.crf))
        if self.nbr is not None:
            out["nbr.n"] = self.nbr.n
        return out


def crf_to_dict(crf: CrfParams) -> dict[str, np.ndarray]:
    return {
        "emit.w": crf.emit_w,
        "emit.b": crf.emit_b,
        "crf.trans": crf.trans,
        "crf.start": crf.start,
        "crf.stop": crf.stop,
    }


def crf_from_dict(params: dict[str, np.ndarray]) -> CrfParams:
    return CrfParams(
        emit_w=params["emit.w"],
        emit_b=params["emit.b"],
        trans=params["crf.trans"],
        start=params["crf.start"],
        stop=params["crf.stop"],
    )


def save_model(path: str, model: Model) -> str:
    digest = save_checkpoint(path, model.params(), model.config.to_echo())
    model.digest = digest
    return digest


def _check_layout(path: str, params: dict[str, np.ndarray], cfg: TrainConfig) -> None:
    """Raise ``FormatError`` unless the sections are exactly those of one
    model, with every shape agreeing with the first LSTM layer's, the
    predicate table's and the emission weights', and the neighborhood
    vectors, if any, with the config echo's mode and K."""
    def extent(name: str, axis: int) -> int:
        if name not in params or params[name].ndim != 2:
            raise FormatError(f"{path}: section {name!r} is missing or not a matrix")
        return params[name].shape[axis]

    n_tags, d = extent("emit.w", 0), extent("emit.w", 1)
    if n_tags == 0:
        raise FormatError(f"{path}: section 'emit.w' holds no tags")
    d_in, d_pred = extent("lstm0.wx", 1), extent("embed.pred", 1)
    want = {"embed.pred": (2, d_pred), "emit.w": (n_tags, d), "emit.b": (n_tags,),
            "crf.trans": (n_tags, n_tags), "crf.start": (n_tags,), "crf.stop": (n_tags,)}
    if "embed.word" in params:
        want["embed.word"] = (extent("embed.word", 0), d_in - d_pred)
    n_layers = next(l for l in itertools.count() if f"lstm{l}.wx" not in params)
    for l in range(n_layers):
        want.update({f"lstm{l}.wx": (4 * d, d_in), f"lstm{l}.wh": (4 * d, d),
                     f"lstm{l}.b": (4 * d,)})
        if l < n_layers - 1:
            want[f"conn{l}.w"] = (d, d + d_in)
        d_in = d
    if "nbr.n" in params:
        want["nbr.n"] = (1 if cfg.neighborhood_mode == "shared" else cfg.k_neighbors, d)
    for name in sorted(want.keys() | params.keys()):
        if name not in params:
            raise FormatError(f"{path}: missing section {name!r}")
        if name not in want:
            raise FormatError(f"{path}: unexpected section {name!r}")
        if params[name].shape != want[name]:
            raise FormatError(f"{path}: section {name!r} has shape {params[name].shape}, "
                              f"expected {want[name]}")


def load_model(path: str) -> Model:
    """A checkpoint as a model; a config echo that ``config_from_echo``
    rejects, or sections that do not form one model, raise ``FormatError``."""
    params, echo, digest = load_checkpoint(path)
    try:
        cfg = config_from_echo(echo)
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from None
    _check_layout(path, params, cfg)
    nbr = None
    if "nbr.n" in params:
        nbr = NeighborhoodParams(n=params["nbr.n"], mode=cfg.neighborhood_mode)
    return Model(
        encoder=EncoderParams.from_dict(params),
        crf=crf_from_dict(params),
        nbr=nbr,
        config=cfg,
        digest=digest,
    )
