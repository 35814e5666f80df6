"""Pipeline configuration: defaults, INI file, command-line overrides.

Resolution order for every key: command-line flag, then the config file,
then the built-in default. The defaults encode the reference training
setup (learning rate 5e-6, 25 epochs, Adam) so a bare run uses it as-is.
All randomness flows from the four seeds below; nothing reads the clock
or OS entropy.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Sequence

from .encoder import EncoderConfig
from .errors import DataValidationError, InputPathError
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
    min_pair_freq: int = _key("tokenizer", 2)
    d_model: int = _key("model", 128)
    n_layers: int = _key("model", 2)
    n_heads: int = _key("model", 4)
    d_ff: int = _key("model", 0)
    max_len: int = _key("model", 64)
    dropout_rate: float = _key("model", 0.1)
    learning_rate: float = _key("train", 5e-6)
    epochs: int = _key("train", 25)
    batch_size: int = _key("train", 16)
    beta1: float = _key("train", 0.9)
    beta2: float = _key("train", 0.999)
    adam_eps: float = _key("train", 1e-8)
    head_only: bool = _key("train", False)
    class_weights: str = _key("train", "")
    train_fraction: float = _key("split", 0.8)
    eval_batch_size: int = _key("inference", 64)
    classify_batch_size: int = _key("inference", 64)
    utc_offset_minutes: int = _key("timeline", 180)
    min_prominence: float = _key("timeline", 2.0)
    top_k: int = _key("timeline", 5)
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
    parser = configparser.ConfigParser()
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
        d_ff=config.d_ff,
        max_len=config.max_len,
        dropout_rate=config.dropout_rate,
    )


def train_config(config: PipelineConfig) -> TrainConfig:
    return TrainConfig(
        learning_rate=config.learning_rate,
        epochs=config.epochs,
        batch_size=config.batch_size,
        beta1=config.beta1,
        beta2=config.beta2,
        adam_eps=config.adam_eps,
        shuffle_seed=config.seed_shuffle,
        class_weights=parse_class_weights(config.class_weights),
        init_seed=config.seed_init,
        dropout_seed=config.seed_dropout,
        head_only=config.head_only,
    )
