"""Pipeline configuration: defaults, INI file, command-line overrides.

Resolution order for every key: command-line flag, then the config file,
then the built-in default. The defaults encode the reference training
setup (learning rate 5e-6, 25 epochs, Adam) so a bare run uses it as-is;
one the library also has is read from the library (only the seeds and
``smoothing_window`` differ, on purpose). All randomness flows from the
four seeds below; nothing reads the clock or OS entropy.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Sequence

from .encoder import EncoderConfig
from .errors import DataValidationError, InputPathError
from .metrics import DEFAULT_INFERENCE_BATCH_SIZE
from .synth import DEFAULT_UTC_OFFSET_MINUTES
from .timeline import DEFAULT_MIN_PROMINENCE, DEFAULT_TOP_K
from .tokenizer import DEFAULT_MIN_PAIR_FREQ
from .trainer import TrainConfig


def _key(section: str, default: Any) -> Any:
    """A config field whose INI section rides in the field metadata."""
    return field(default=default, metadata={"section": section})


@dataclass
class PipelineConfig:
    labeled_path: str = _key("paths", "")
    corpus_path: str = _key("paths", "")
    vocab_path: str = _key("paths", "")
    checkpoint_path: str = _key("paths", "")
    classified_path: str = _key("paths", "")
    out_dir: str = _key("paths", "out")
    vocab_max_size: int = _key("tokenizer", 4000)
    min_pair_freq: int = _key("tokenizer", DEFAULT_MIN_PAIR_FREQ)
    d_model: int = _key("model", EncoderConfig.d_model)
    n_layers: int = _key("model", EncoderConfig.n_layers)
    n_heads: int = _key("model", EncoderConfig.n_heads)
    max_len: int = _key("model", EncoderConfig.max_len)
    dropout_rate: float = _key("model", EncoderConfig.dropout_rate)
    learning_rate: float = _key("train", TrainConfig.learning_rate)
    epochs: int = _key("train", TrainConfig.epochs)
    batch_size: int = _key("train", TrainConfig.batch_size)
    head_only: bool = _key("train", TrainConfig.head_only)
    class_weights: str = _key("train", "")
    train_fraction: float = _key("split", 0.8)
    eval_batch_size: int = _key("inference", DEFAULT_INFERENCE_BATCH_SIZE)
    classify_batch_size: int = _key("inference", DEFAULT_INFERENCE_BATCH_SIZE)
    utc_offset_minutes: int = _key("timeline", DEFAULT_UTC_OFFSET_MINUTES)
    min_prominence: float = _key("timeline", DEFAULT_MIN_PROMINENCE)
    top_k: int = _key("timeline", DEFAULT_TOP_K)
    smoothing_window: int = _key("timeline", 0)
    seed_split: int = _key("seeds", 13)
    seed_init: int = _key("seeds", 17)
    seed_shuffle: int = _key("seeds", 23)
    seed_dropout: int = _key("seeds", 29)


# key -> field; its type annotation picks the parser, its metadata the INI section.
_FIELDS = {f.name: f for f in fields(PipelineConfig)}
CONFIG_KEYS = frozenset(_FIELDS)


def _parse_value(key: str, raw: str) -> Any:
    kind = _FIELDS[key].type
    try:
        if kind == "bool":
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise DataValidationError(f"config key {key}: {exc}")


def parse_kv(key: str, raw: str) -> Any:
    """Parse one KEY=VALUE override with the key's declared type."""
    if key not in _FIELDS:
        raise DataValidationError(f"unknown config key: {key}")
    return _parse_value(key, raw)


def load_config(path: str | Path | None) -> PipelineConfig:
    """Defaults, overlaid with an INI file when one is given."""
    config = PipelineConfig()
    if path is None:
        return config
    p = Path(path)
    if not p.is_file():
        raise InputPathError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputPathError(f"cannot read config file: {p}: {exc}")
    # A "%" is literal, and [DEFAULT] is a section no other one inherits from.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text, source=str(p))
    except configparser.Error as exc:
        raise DataValidationError(f"cannot parse config file {p}: {exc}")
    for section in parser.sections():
        for key, raw in parser.items(section):
            if key not in _FIELDS or _FIELDS[key].metadata["section"] != section:
                raise DataValidationError(
                    f"unknown config key [{section}] {key} in {p}"
                )
            setattr(config, key, _parse_value(key, raw))
    return config


def apply_overrides(config: PipelineConfig, overrides: dict[str, Any]) -> PipelineConfig:
    """Overlay non-None command-line values onto the config."""
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _FIELDS:
            raise DataValidationError(f"unknown config key: {key}")
        setattr(config, key, value)
    return config


def resolve_config(
    path: str | Path | None, set_pairs: Sequence[str], flags: dict[str, Any]
) -> PipelineConfig:
    """Defaults, then the INI file, then --set KEY=VALUE pairs, then flags."""
    config = load_config(path)
    pairs = {}
    for item in set_pairs:
        if "=" not in item:
            raise DataValidationError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip().replace("-", "_")
        pairs[key] = parse_kv(key, raw)
    apply_overrides(config, pairs)
    return apply_overrides(config, flags)


def config_snapshot(config: PipelineConfig) -> dict:
    """Stable dict for the run manifest, grouped by section."""
    snap: dict[str, dict] = {}
    for key, f in _FIELDS.items():
        snap.setdefault(f.metadata["section"], {})[key] = getattr(config, key)
    return snap


def parse_class_weights(raw: str) -> tuple[float, float, float, float] | None:
    if not raw.strip():
        return None
    parts = [s.strip() for s in raw.split(",")]
    if len(parts) != 4:
        raise DataValidationError(
            f"class_weights needs 4 comma-separated numbers, got {raw!r}"
        )
    try:
        return tuple(float(s) for s in parts)
    except ValueError:
        raise DataValidationError(f"class_weights must be numeric, got {raw!r}")


def encoder_config(config: PipelineConfig, vocab_size: int) -> EncoderConfig:
    return EncoderConfig(
        vocab_size=vocab_size,
        d_model=config.d_model,
        n_layers=config.n_layers,
        n_heads=config.n_heads,
        max_len=config.max_len,
        dropout_rate=config.dropout_rate,
    )


def train_config(config: PipelineConfig) -> TrainConfig:
    return TrainConfig(
        learning_rate=config.learning_rate,
        epochs=config.epochs,
        batch_size=config.batch_size,
        shuffle_seed=config.seed_shuffle,
        class_weights=parse_class_weights(config.class_weights),
        init_seed=config.seed_init,
        dropout_seed=config.seed_dropout,
        head_only=config.head_only,
    )
