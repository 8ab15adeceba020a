"""Versioned binary checkpoints: named parameter tensors plus a config echo.

Layout (little-endian, framed by ``dataio.framed_bytes``): magic
"PNMACKPT3", u32 config-echo length + UTF-8 bytes, u32 section count, then
per section u32 name length + bytes, u32 rank, u32 extents, f32 payload; a
trailing sha256 digest covers everything before it.  The magic's last byte
is the format version, and the only one: the echo holds the ``TrainConfig``
keys that ``TrainConfig.to_echo`` writes, every field but ``threads``, and
an older file ("PNMACKPT1" or "PNMACKPT2") is refused as an unsupported
version.  The digest hex doubles as the checkpoint identity that memory
files reference.  ``load_model`` also requires the sections to form one
model.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig, config_from_echo
from .crf import CrfParams
from .dataio import framed_bytes, read_framed
from .encoder import EncoderParams
from .errors import ConfigError, FormatError
from .neighborhood import NeighborhoodParams

CHECKPOINT_MAGIC = b"PNMACKPT3"

ENCODER_PREFIXES = ("embed.", "lstm", "conn")


def is_encoder_param(name: str) -> bool:
    return name.startswith(ENCODER_PREFIXES)


def checkpoint_bytes(params: dict[str, np.ndarray], config_echo: str) -> bytes:
    body = bytearray()
    echo = config_echo.encode("utf-8")
    body += struct.pack("<I", len(echo))
    body += echo
    body += struct.pack("<I", len(params))
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f4")
        name_b = name.encode("utf-8")
        body += struct.pack("<I", len(name_b))
        body += name_b
        body += struct.pack("<I", arr.ndim)
        for ext in arr.shape:
            body += struct.pack("<I", ext)
        body += arr.tobytes()
    return framed_bytes(CHECKPOINT_MAGIC, body)


def save_checkpoint(path: str, params: dict[str, np.ndarray], config_echo: str) -> str:
    """Write the checkpoint; returns its content digest (hex)."""
    blob = checkpoint_bytes(params, config_echo)
    with open(path, "wb") as fh:
        fh.write(blob)
    return blob[-32:].hex()


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], str, str]:
    """Read (params, config echo, digest hex); validates magic and digest."""
    params: dict[str, np.ndarray] = {}
    with read_framed(path, CHECKPOINT_MAGIC, "checkpoint") as r:
        echo = r.text(r.u32(), "config echo")
        for s in range(r.u32()):
            name = r.text(r.u32(), f"name of section {s}")
            shape = tuple(r.u32() for _ in range(r.u32()))
            raw = r.take(4 * math.prod(shape))  # Python ints: no int64 wrap
            try:
                arr = np.frombuffer(raw, dtype="<f4").reshape(shape)
            except ValueError:  # an empty section whose other extents overflow
                raise FormatError(f"{path}: section {name!r} has unrepresentable shape "
                                  f"{shape}") from None
            if not np.isfinite(arr).all():
                raise FormatError(f"{path}: non-finite value in section {name!r}")
            params[name] = arr.copy()
    return params, echo, r.digest


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
    rejects, sections that do not form one model, or an echo whose model
    shape the sections contradict raise ``FormatError``."""
    params, echo, digest = load_checkpoint(path)
    try:
        cfg = config_from_echo(echo)
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from None
    _check_layout(path, params, cfg)
    encoder = EncoderParams.from_dict(params)
    conflict = encoder.config_conflict(cfg)
    if conflict:
        raise FormatError(f"{path}: the sections contradict the config echo: {conflict}")
    nbr = None
    if "nbr.n" in params:
        nbr = NeighborhoodParams(n=params["nbr.n"], mode=cfg.neighborhood_mode)
    return Model(
        encoder=encoder,
        crf=crf_from_dict(params),
        nbr=nbr,
        config=cfg,
        digest=digest,
    )
