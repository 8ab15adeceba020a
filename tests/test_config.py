import dataclasses

import pytest

from pnma.cli import exit_code_for
from pnma.config import TrainConfig, config_from_echo, load_run_config
from pnma.errors import (
    CapacityError,
    CompatibilityError,
    ConfigError,
    CoverageError,
    DimensionError,
    DomainError,
    FormatError,
    NumericError,
    ParseError,
    PnmaError,
)


class TestTrainConfig:
    def test_echo_round_trip(self):
        cfg = TrainConfig(epochs=7, base_lr=2e-3, d_hidden=32, neighborhood_mode="shared")
        assert config_from_echo(cfg.to_echo()) == cfg

    # worker threads never change a result, so a checkpoint does not record them
    @pytest.mark.parametrize("key", ["format_version", "train", "threads"])
    def test_echo_holds_no_other_key(self, key):
        echo = f"{key} = 2\n" + TrainConfig().to_echo()
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            config_from_echo(echo)

    def test_echo_lacking_a_key_is_refused(self):
        # a missing key would load as its default: 4e-4 for phase2_lr
        echo = TrainConfig(phase2_lr=1e-3).to_echo().replace("phase2_lr = 0.001\n", "")
        with pytest.raises(ConfigError, match="config echo: no line for key 'phase2_lr'"):
            config_from_echo(echo)

    def test_echo_holds_only_the_fields(self):
        keys = [line.split(" = ")[0] for line in TrainConfig().to_echo().splitlines()]
        assert keys == [f.name for f in dataclasses.fields(TrainConfig) if f.name != "threads"]
        assert len(keys) == 16

    def test_validation_rejects_nonpositive_lr(self):
        with pytest.raises(ConfigError):
            TrainConfig(base_lr=0.0)

    def test_validation_rejects_bad_dropout(self):
        with pytest.raises(ConfigError):
            TrainConfig(dropout_embed=1.0)


class TestRunConfigFile:
    def test_file_values_parsed(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# comment\n"
            "epochs = 9\n"
            "base_lr = 5e-4\n"
            "scheme = per-token-role\n",
            encoding="utf-8",
        )
        cfg = load_run_config(str(p))
        assert cfg.epochs == 9
        assert cfg.base_lr == 5e-4
        assert cfg.scheme == "per-token-role"

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("frobs = 2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="frobs"):
            load_run_config(str(p))

    def test_version_line_is_unknown_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("format_version = 7\nepochs = 2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="run.cfg:1: unknown config key 'format_version'"):
            load_run_config(str(p))

    def test_repeated_key_is_refused(self, tmp_path):
        # the later line would silently win: 7 epochs, not 4
        p = tmp_path / "run.cfg"
        p.write_text("epochs = 4\nseed = 1\nepochs = 7\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="run.cfg:3: config key 'epochs' is given twice"):
            load_run_config(str(p))

    def test_flags_win_over_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs = 9\n", encoding="utf-8")
        cfg = load_run_config(str(p), overrides={"epochs": 3})
        assert cfg.epochs == 3

    def test_defaulted_keys_logged(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("epochs = 2\n", encoding="utf-8")
        load_run_config(str(p))
        err = capsys.readouterr().err
        assert "using defaults for" in err
        assert "base_lr" in err

    def test_env_var_names_no_config(self, tmp_path, monkeypatch):
        # --config is the one way to name a run config
        p = tmp_path / "env.cfg"
        p.write_text("epochs = 13\n", encoding="utf-8")
        monkeypatch.setenv("PNMA_CONFIG", str(p))
        assert load_run_config(None) == TrainConfig()

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs 9\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=":1:"):
            load_run_config(str(p))

    @pytest.mark.parametrize("line", [
        "epochs = 1e400", "epochs = abc", "epochs = 2.5", "base_lr = nan",
        "base_lr = inf", "weight_decay = -inf", "base_lr = 1e400",
        "lr_halving_epochs = 3,x",
    ])
    def test_unreadable_value_names_key(self, tmp_path, line):
        p = tmp_path / "run.cfg"
        p.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=line.split()[0]):
            load_run_config(str(p))

    def test_non_utf8_file_names_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_bytes(b"epochs = 2\nseed = \xff3\n")
        with pytest.raises(ConfigError, match=":2: not UTF-8"):
            load_run_config(str(p))


class TestExitCodes:
    def test_numeric_failure_is_three(self):
        assert exit_code_for(NumericError("x")) == 3

    @pytest.mark.parametrize("exc", [
        ParseError("x"), FormatError("x"), CoverageError("x"), CapacityError("x"),
        CompatibilityError("x"), ConfigError("x"), DomainError("x"),
        DimensionError("x"), FileNotFoundError("x"), NotADirectoryError("x"),
        FileExistsError("x"), PermissionError("x"),
    ])
    def test_data_errors_are_two(self, exc):
        assert exit_code_for(exc) == 2

    def test_any_new_toolkit_error_is_two(self):
        # the exit codes follow the taxonomy: a subclass no list names is data
        class NewError(PnmaError):
            pass

        assert exit_code_for(NewError("x")) == 2


class TestIntegerKeys:
    @pytest.mark.parametrize("name, least", [
        ("seed", 0), ("batch_size", 1), ("n_layers", 1), ("d_word", 1), ("d_pred", 1),
        ("d_hidden", 1), ("k_neighbors", 1), ("threads", 1), ("epochs", 0),
        ("phase2_epochs", 0),
    ])
    def test_least_value_accepted_one_below_rejected(self, name, least):
        assert getattr(TrainConfig(**{name: least}), name) == least
        with pytest.raises(ConfigError, match=f"{name} must be at least {least}"):
            TrainConfig(**{name: least - 1})

    def test_zero_epochs_accepted(self):
        assert TrainConfig(epochs=0, phase2_epochs=0).epochs == 0

    def test_file_value_out_of_range_names_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("batch_size = 0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="batch_size"):
            load_run_config(str(path))


@pytest.mark.parametrize("key", ["train", "valid", "test", "vocab", "checkpoint", "memory",
                                 "out", "out_dir"])
def test_path_key_is_unknown(tmp_path, key):
    # file paths are flags; a run-config file holds TrainConfig keys alone
    p = tmp_path / "run.cfg"
    p.write_text(f"epochs = 2\n{key} = x\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"run.cfg:2: unknown config key '{key}'"):
        load_run_config(str(p))
