import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stancewatch.config import (
    CONFIG_KEYS,
    PipelineConfig,
    apply_overrides,
    config_snapshot,
    encoder_config,
    load_config,
    parse_class_weights,
    parse_kv,
    train_config,
)
from stancewatch.errors import DataValidationError, InputPathError

# Settings that became constants; the fuzz writes them too.
REMOVED_KEYS = ["beta1", "beta2", "adam_eps", "d_ff", "n_classes", "layer_norm_eps"]
# INI text for the fuzz: section headers, known and removed keys with any
# value (some spelled from INI's own syntax characters), and stray lines.
INI_HEADER = st.one_of(
    st.sampled_from(["[train]", "[model]", "[paths]", "[timeline]", "[seeds]", "[DEFAULT]", "", "["]),
    st.text(max_size=10),
)
INI_LINE = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(sorted(CONFIG_KEYS) + REMOVED_KEYS),
              st.text(max_size=12) | st.text("%()[]=:#;.-+ 019eaxsn", max_size=12)),
    st.builds("{}: {}".format, st.text(max_size=8), st.text(max_size=8)),
    st.text(max_size=20),
)


class TestDefaults:
    def test_reference_training_setup(self):
        cfg = PipelineConfig()
        assert cfg.learning_rate == 5e-6
        assert cfg.epochs == 25
        assert cfg.batch_size == 16
        assert cfg.d_model == 128
        assert cfg.n_layers == 2
        assert cfg.n_heads == 4
        assert cfg.train_fraction == 0.8
        assert cfg.utc_offset_minutes == 180
        assert cfg.min_prominence == 2.0
        assert cfg.top_k == 5

    def test_all_seeds_explicit(self):
        cfg = PipelineConfig()
        assert (cfg.seed_split, cfg.seed_init, cfg.seed_shuffle, cfg.seed_dropout) == (13, 17, 23, 29)


class TestLoadConfig:
    def test_none_gives_defaults(self):
        assert load_config(None) == PipelineConfig()

    def test_ini_overlays(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text(
            "[train]\nlearning_rate = 1e-3\nepochs = 7\nhead_only = true\n"
            "[model]\nd_model = 32\n"
            "[timeline]\nsmoothing_window = 3\n",
            encoding="utf-8",
        )
        cfg = load_config(p)
        assert cfg.learning_rate == 1e-3
        assert cfg.epochs == 7
        assert cfg.head_only is True
        assert cfg.d_model == 32
        assert cfg.smoothing_window == 3
        assert cfg.batch_size == 16  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[train]\nlerning_rate = 1e-3\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match="lerning_rate"):
            load_config(p)

    def test_key_in_wrong_section_rejected(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[model]\nepochs = 3\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match="epochs"):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputPathError):
            load_config(tmp_path / "none.ini")

    def test_malformed_ini(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("not an ini file at all\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match="parse"):
            load_config(p)

    def test_bad_value_type(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[train]\nepochs = many\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match="epochs"):
            load_config(p)

    @pytest.mark.parametrize("section, key, value", [
        ("train", "beta1", "0.9"), ("train", "beta2", "0.999"), ("train", "adam_eps", "1e-8"),
        ("model", "d_ff", "512"), ("model", "n_classes", "4"), ("model", "layer_norm_eps", "1e-12"),
    ])
    def test_constant_is_not_a_key(self, tmp_path, section, key, value):
        """Adam's b1, b2 and eps, the feed-forward width, the class count and
        LayerNorm's epsilon are constants, so an INI that sets one is refused."""
        p = tmp_path / "run.ini"
        p.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match=f"unknown config key \\[{section}\\] {key}"):
            load_config(p)

    def test_percent_is_literal(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[paths]\nout_dir = out%20a%%b%(x)s\n[train]\nepochs = %\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match="config key epochs"):
            load_config(p)
        p.write_text("[paths]\nout_dir = out%20a%%b%(x)s\n", encoding="utf-8")
        assert load_config(p).out_dir == "out%20a%%b%(x)s"

    def test_default_section_is_refused(self, tmp_path):
        """configparser would copy a [DEFAULT] key into every section, or drop
        it when there is none; neither is what the file says."""
        p = tmp_path / "run.ini"
        p.write_text("[DEFAULT]\nepochs = 3\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match="DEFAULT"):
            load_config(p)

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(INI_HEADER, st.lists(INI_LINE, max_size=4)), max_size=4).map(
        lambda sections: "\n".join(line for header, lines in sections for line in [header, *lines])))
    def test_any_text_loads_or_is_refused(self, tmp_path, text):
        """Whatever the file holds, load_config returns a config or raises
        one of the errors the CLI turns into an exit code."""
        p = tmp_path / "fuzz.ini"
        p.write_bytes(text.encode("utf-8", "surrogatepass"))
        try:
            config = load_config(p)
        except (DataValidationError, InputPathError):
            return
        assert isinstance(config, PipelineConfig)


class TestParseKv:
    def test_typed_parsing(self):
        assert parse_kv("epochs", "9") == 9
        assert parse_kv("learning_rate", "2e-4") == 2e-4
        assert parse_kv("head_only", "yes") is True
        assert parse_kv("head_only", "off") is False
        assert parse_kv("out_dir", "results") == "results"

    def test_unknown_key(self):
        with pytest.raises(DataValidationError, match="unknown config key"):
            parse_kv("nope", "1")

    def test_bad_bool(self):
        with pytest.raises(DataValidationError):
            parse_kv("head_only", "maybe")


class TestOverrides:
    def test_none_values_skipped(self):
        cfg = PipelineConfig()
        apply_overrides(cfg, {"epochs": None, "d_model": 64})
        assert cfg.epochs == 25
        assert cfg.d_model == 64

    def test_unknown_key_rejected(self):
        with pytest.raises(DataValidationError):
            apply_overrides(PipelineConfig(), {"bogus": 1})


class TestSnapshot:
    def test_covers_every_field_grouped(self):
        snap = config_snapshot(PipelineConfig())
        flattened = {k for sec in snap.values() for k in sec}
        assert flattened == set(PipelineConfig().__dataclass_fields__)
        assert snap["train"]["learning_rate"] == 5e-6
        assert snap["seeds"]["seed_split"] == 13


class TestClassWeights:
    def test_empty_is_none(self):
        assert parse_class_weights("") is None
        assert parse_class_weights("   ") is None

    def test_four_floats(self):
        assert parse_class_weights("1, 2.5, 0.5, 1") == (1.0, 2.5, 0.5, 1.0)

    def test_wrong_arity(self):
        with pytest.raises(DataValidationError):
            parse_class_weights("1,2,3")

    def test_non_numeric(self):
        with pytest.raises(DataValidationError):
            parse_class_weights("a,b,c,d")


class TestDerivedConfigs:
    def test_encoder_config_mapping(self):
        cfg = PipelineConfig()
        cfg.d_model = 16
        cfg.n_heads = 2
        cfg.n_layers = 1
        ec = encoder_config(cfg, vocab_size=123)
        assert ec.vocab_size == 123
        assert ec.d_model == 16
        assert ec.d_ff == 64  # 4 * d_model

    def test_train_config_mapping(self):
        cfg = PipelineConfig()
        cfg.class_weights = "1,1,2,1"
        cfg.seed_shuffle = 77
        tc = train_config(cfg)
        assert tc.shuffle_seed == 77
        assert tc.class_weights == (1.0, 1.0, 2.0, 1.0)
        assert tc.learning_rate == 5e-6
