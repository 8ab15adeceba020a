import hashlib
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pnma.checkpoint import (
    CHECKPOINT_MAGIC,
    Model,
    checkpoint_bytes,
    crf_from_dict,
    crf_to_dict,
    is_encoder_param,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
)
from pnma.config import TrainConfig
from pnma.crf import init_crf_params
from pnma.encoder import EncoderParams, init_encoder_params
from pnma.errors import FormatError
from pnma.neighborhood import init_neighborhood_params
from pnma.numeric import make_rng


# the echo lines of the keys a format-2 checkpoint held and format 3 retired
RETIRED_ECHO_LINES = ("lr_halving_epochs = 50,75\n", "weight_decay = 0.0001\n",
                      "clip_norm = 5.0\n", "clip_enabled = False\n", "dtype = float32\n",
                      "threads = 1\n")


def make_params():
    rng = make_rng(1)
    enc = init_encoder_params(vocab_size=7, d_word=4, d_pred=3, d_hidden=5,
                              n_layers=2, rng=rng)
    crf = init_crf_params(5, 4, rng)
    return enc, crf


class TestCheckpointFile:
    def test_save_load_save_byte_identical(self, tmp_path):
        enc, crf = make_params()
        params = {**enc.to_dict(), **crf_to_dict(crf)}
        echo = TrainConfig().to_echo()
        p1 = str(tmp_path / "a.ckpt")
        p2 = str(tmp_path / "b.ckpt")
        save_checkpoint(p1, params, echo)
        loaded, echo2, digest = load_checkpoint(p1)
        save_checkpoint(p2, loaded, echo2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_round_trip_values(self, tmp_path):
        enc, crf = make_params()
        params = {**enc.to_dict(), **crf_to_dict(crf)}
        path = str(tmp_path / "c.ckpt")
        digest = save_checkpoint(path, params, "epochs = 1\n")
        loaded, echo, digest2 = load_checkpoint(path)
        assert digest == digest2
        assert set(loaded) == set(params)
        for k in params:
            np.testing.assert_array_equal(loaded[k], params[k].astype(np.float32))

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT9" + b"\x00" * 64)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(str(path))

    def test_version_mismatch(self, tmp_path):
        # a file as the format-2 writer made it: its magic, the retired keys in
        # the echo, and a digest valid over both
        enc, crf = make_params()
        blob = checkpoint_bytes({**enc.to_dict(), **crf_to_dict(crf)},
                                TrainConfig().to_echo() + "".join(RETIRED_ECHO_LINES))
        body = b"PNMACKPT2" + blob[len(CHECKPOINT_MAGIC) : -32]
        path = tmp_path / "v2.ckpt"
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(FormatError, match="v2.ckpt: unsupported checkpoint format version"):
            load_checkpoint(str(path))

    def test_digest_validates(self, tmp_path):
        enc, crf = make_params()
        path = str(tmp_path / "d.ckpt")
        save_checkpoint(path, enc.to_dict(), "x = 1\n")
        blob = bytearray(open(path, "rb").read())
        blob[40] ^= 0x01
        path2 = tmp_path / "d2.ckpt"
        path2.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="digest"):
            load_checkpoint(str(path2))

    def test_digest_is_stable_function_of_content(self):
        enc, crf = make_params()
        params = {**enc.to_dict(), **crf_to_dict(crf)}
        assert checkpoint_bytes(params, "a = 1\n") == checkpoint_bytes(params, "a = 1\n")
        assert checkpoint_bytes(params, "a = 1\n") != checkpoint_bytes(params, "a = 2\n")

    @staticmethod
    def _sealed(tmp_path, body: bytes) -> str:
        """A checkpoint file holding ``body`` under a valid digest."""
        path = tmp_path / "crafted.ckpt"
        path.write_bytes(body + hashlib.sha256(body).digest())
        return str(path)

    def test_non_utf8_config_echo_is_format_error(self, tmp_path):
        body = CHECKPOINT_MAGIC + struct.pack("<I", 2) + b"\xff\xfe" + struct.pack("<I", 0)
        with pytest.raises(FormatError, match="config echo is not UTF-8"):
            load_checkpoint(self._sealed(tmp_path, body))

    def test_non_utf8_section_name_is_format_error(self, tmp_path):
        enc, _ = make_params()
        body = bytearray(checkpoint_bytes(enc.to_dict(), "a = 1\n")[:-32])
        at = body.index(b"lstm1.wh")
        body[at : at + 2] = b"\xff\xfe"
        with pytest.raises(FormatError, match="name of section .* is not UTF-8"):
            load_checkpoint(self._sealed(tmp_path, bytes(body)))

    # 2^64 items wrap an int64 product to 0, (2^32 - 1)^2 to a negative count;
    # a zero extent leaves the rest too large for numpy to shape
    @pytest.mark.parametrize("shape, match", [
        ((1 << 16,) * 4, "truncated checkpoint"),
        ((0xFFFFFFFF, 0xFFFFFFFF), "truncated checkpoint"),
        ((1 << 20,), "truncated checkpoint"),
        ((0, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF), "unrepresentable shape"),
    ])
    def test_crafted_section_shape_is_format_error(self, tmp_path, shape, match):
        body = CHECKPOINT_MAGIC + struct.pack("<I", 0) + struct.pack("<I", 1)
        body += struct.pack("<I", 1) + b"w" + struct.pack("<I", len(shape))
        body += struct.pack(f"<{len(shape)}I", *shape) + b"\x00" * 64
        with pytest.raises(FormatError, match=match):
            load_checkpoint(self._sealed(tmp_path, body))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_crafted_files_load_or_raise_format_error(self, tmp_path, data):
        # any overwrite or truncation of the body, re-digested so that only the
        # parser stands between the bytes and the caller
        enc, _ = make_params()
        body = bytearray(checkpoint_bytes(enc.to_dict(), "a = 1\n")[:-32])
        cut = data.draw(st.integers(len(CHECKPOINT_MAGIC), len(body)))
        body = body[:cut]
        for _ in range(data.draw(st.integers(0, 4))):
            at = data.draw(st.integers(len(CHECKPOINT_MAGIC), len(body)))
            body[at : at + 4] = data.draw(st.binary(min_size=1, max_size=4))
        try:
            load_checkpoint(self._sealed(tmp_path, bytes(body)))
        except FormatError:
            pass


class TestModelBundle:
    def test_model_round_trip(self, tmp_path):
        enc, crf = make_params()
        cfg = TrainConfig(d_word=4, d_pred=3, d_hidden=5, n_layers=2, k_neighbors=6)
        nbr = init_neighborhood_params(6, 5, make_rng(2))
        model = Model(encoder=enc, crf=crf, nbr=nbr, config=cfg)
        path = str(tmp_path / "m.ckpt")
        save_model(path, model)
        back = load_model(path)
        assert back.config == cfg
        assert back.nbr is not None
        np.testing.assert_array_equal(back.nbr.n, nbr.n.astype(np.float32))
        assert back.encoder.n_layers == 2
        np.testing.assert_array_equal(
            back.crf.trans, crf.trans.astype(np.float32)
        )

    def test_base_model_has_no_neighborhood(self, tmp_path):
        enc, crf = make_params()
        cfg = TrainConfig(d_word=4, d_pred=3, d_hidden=5, n_layers=2)
        path = str(tmp_path / "b.ckpt")
        save_model(path, Model(encoder=enc, crf=crf, nbr=None, config=cfg))
        assert load_model(path).nbr is None

    def test_every_section_alteration_is_format_error(self, tmp_path):
        enc, crf = make_params()
        cfg = TrainConfig(d_word=4, d_pred=3, d_hidden=5, n_layers=2, k_neighbors=6)
        good = Model(encoder=enc, crf=crf, nbr=init_neighborhood_params(6, 5, make_rng(2)),
                     config=cfg).params()
        path = str(tmp_path / "x.ckpt")
        # a model may lack a word table (external embeddings) or rank vectors
        # (phase 1), so only those two sections may go
        optional = {"embed.word", "nbr.n"}
        altered = [(f"drop {n}", {k: a for k, a in good.items() if k != n})
                   for n in good if n not in optional]
        altered += [(f"trim {n}", {**good, n: a[..., :-1]}) for n, a in good.items()]
        altered += [(f"flatten {n}", {**good, n: a.reshape(-1)}) for n, a in good.items()
                    if a.ndim > 1]
        altered += [(f"stray {n}", {**good, n: good["lstm0.wx"]})
                    for n in ("lstm2.wx", "lstm7.wx", "conn1.w", "embed.extra")]
        for what, params in altered:
            save_checkpoint(path, params, cfg.to_echo())
            with pytest.raises(FormatError, match="x.ckpt: "):
                load_model(path)
        save_checkpoint(path, good, cfg.to_echo())
        assert load_model(path).params().keys() == good.keys()

    @pytest.mark.parametrize("old, new", [("epochs = 100", "format_version = 2\nepochs = 100"),
                                          ("epochs = 100", "epochs = -1"),
                                          ("epochs = 100", "epochs")])
    def test_rejected_config_echo_is_format_error(self, tmp_path, old, new):
        enc, crf = make_params()
        path = str(tmp_path / "e.ckpt")
        echo = TrainConfig(d_word=4, d_pred=3, d_hidden=5, n_layers=2).to_echo()
        save_checkpoint(path, {**enc.to_dict(), **crf_to_dict(crf)}, echo.replace(old, new))
        with pytest.raises(FormatError, match="e.ckpt: "):
            load_model(path)

    @pytest.mark.parametrize("line", RETIRED_ECHO_LINES)
    def test_retired_key_in_echo_is_format_error(self, tmp_path, line):
        enc, crf = make_params()
        path = str(tmp_path / "r.ckpt")
        echo = TrainConfig(d_word=4, d_pred=3, d_hidden=5, n_layers=2).to_echo()
        save_checkpoint(path, {**enc.to_dict(), **crf_to_dict(crf)}, echo + line)
        key = line.split(" = ")[0]
        with pytest.raises(FormatError, match=f"r.ckpt: config echo:17: unknown config key "
                                              f"'{key}'"):
            load_model(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda echo: echo + "epochs = 7\n", "config echo:17: config key 'epochs' is given twice"),
        (lambda echo: echo.replace("phase2_lr = 0.0004\n", ""),
         "config echo: no line for key 'phase2_lr'"),
    ], ids=["repeated-key", "missing-key"])
    def test_echo_with_a_key_not_once_is_format_error(self, tmp_path, edit, match):
        # save_checkpoint seals the crafted echo with a valid digest
        enc, crf = make_params()
        path = str(tmp_path / "k.ckpt")
        echo = TrainConfig(d_word=4, d_pred=3, d_hidden=5, n_layers=2).to_echo()
        save_checkpoint(path, {**enc.to_dict(), **crf_to_dict(crf)}, edit(echo))
        load_checkpoint(path)  # the file itself is sound
        with pytest.raises(FormatError, match=f"k.ckpt: {match}"):
            load_model(path)

    def test_format_1_model_is_format_error(self, tmp_path):
        # a format-1 file as the old writer made it: its magic, a version line
        # in the echo, and a digest valid over both
        enc, crf = make_params()
        echo = "format_version = 1\n" + TrainConfig(d_word=4, d_pred=3, d_hidden=5,
                                                    n_layers=2).to_echo()
        blob = checkpoint_bytes({**enc.to_dict(), **crf_to_dict(crf)}, echo)
        body = b"PNMACKPT1" + blob[len(CHECKPOINT_MAGIC) : -32]
        path = tmp_path / "v1.ckpt"
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(FormatError, match="v1.ckpt: unsupported checkpoint format version"):
            load_model(str(path))

    def test_model_without_tags_is_format_error(self, tmp_path):
        enc, _ = make_params()
        crf = init_crf_params(5, 0, make_rng(3))
        path = str(tmp_path / "t.ckpt")
        save_model(path, Model(encoder=enc, crf=crf, nbr=None, config=TrainConfig()))
        with pytest.raises(FormatError, match="holds no tags"):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_section_is_format_error(self, tmp_path, value):
        enc, crf = make_params()
        crf.trans[1, 2] = value
        path = str(tmp_path / "n.ckpt")
        save_checkpoint(path, {**enc.to_dict(), **crf_to_dict(crf)}, "a = 1\n")
        with pytest.raises(FormatError, match="non-finite value in section 'crf.trans'"):
            load_checkpoint(path)

    def test_encoder_param_predicate(self):
        assert is_encoder_param("embed.word")
        assert is_encoder_param("lstm0.wx")
        assert is_encoder_param("conn1.w")
        assert not is_encoder_param("emit.w")
        assert not is_encoder_param("crf.trans")
        assert not is_encoder_param("nbr.n")

    def test_encoder_reconstruction_from_dict(self):
        enc, _ = make_params()
        d = enc.to_dict()
        back = EncoderParams.from_dict(d)
        assert back.n_layers == enc.n_layers
        assert len(back.connections) == len(enc.connections)
        np.testing.assert_array_equal(back.layers[1].wh, enc.layers[1].wh)

    def test_crf_dict_round_trip(self):
        _, crf = make_params()
        back = crf_from_dict(crf_to_dict(crf))
        np.testing.assert_array_equal(back.trans, crf.trans)
