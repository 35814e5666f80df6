import datetime as dt
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from stancewatch.corpus import Category, LabeledDataset, Tweet
from stancewatch.encoder import EncoderConfig, init_params
from stancewatch.metrics import evaluate
from stancewatch.svg import confusion_svg, prf_bars_svg, roc_svg, timeline_svg
from stancewatch.timeline import (
    EPOCH,
    ONE_US,
    Classified,
    aggregate_daily,
    detect_peaks,
    share,
)
from stancewatch.tokenizer import build_vocab

UTC = dt.timezone.utc


@pytest.fixture(scope="module")
def report():
    texts = {
        Category.NEWS: ["haber ajans aşı", "gazete manşet aşı"],
        Category.IRRELEVANT: ["magazin dizi aşı", "futbol tatil aşı"],
        Category.ANTI_VACCINE: ["aşı karşıyım reddet", "aşı komplo kötü"],
        Category.PRO_VACCINE: ["aşı yaptırdım randevu", "aşı bilim güzel"],
    }
    tweets = []
    i = 0
    for cat, items in texts.items():
        for text in items:
            tweets.append(Tweet(f"s{i}", dt.datetime(2021, 8, 1, tzinfo=UTC), text, cat))
            i += 1
    testset = LabeledDataset(tuple(tweets))
    vocab = build_vocab([t.text for t in testset.examples], max_size=300)
    cfg = EncoderConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2, max_len=12)
    params = init_params(cfg, seed=2, vocab_hash=vocab.content_hash())
    return evaluate(params, vocab, testset)


@pytest.fixture(scope="module")
def timeline_inputs():
    created_us, predicted = [], []
    rng = np.random.default_rng(4)
    for day in range(10):
        n_anti = 20 if day == 6 else 3
        for cat, count in ((0, 10), (1, 8), (2, n_anti), (3, 6)):
            for _ in range(count):
                created_at = (dt.datetime(2021, 8, 1, int(rng.integers(0, 21)), tzinfo=UTC)
                              + dt.timedelta(days=day))
                created_us.append((created_at - EPOCH) // ONE_US)
                predicted.append(cat)
    rows = Classified(tuple(f"v{i}" for i in range(len(predicted))), created_us, predicted,
                      np.eye(4)[predicted])
    series = aggregate_daily(rows, utc_offset_minutes=0)
    anti = share(series, Category.ANTI_VACCINE)
    peaks = detect_peaks(anti, Category.ANTI_VACCINE)
    return series, anti, peaks


def parse_svg(doc: str) -> ET.Element:
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    assert "viewBox" in root.attrib or ("width" in root.attrib and "height" in root.attrib)
    return root


class TestFigures:
    def test_confusion_svg_valid_and_complete(self, report):
        doc = confusion_svg(report.confusion)
        parse_svg(doc)
        # every cell count appears as text
        flat = report.confusion.counts.flatten()
        for v in set(int(x) for x in flat):
            assert f">{v}<" in doc

    def test_roc_svg_valid(self, report):
        doc = roc_svg(report)
        parse_svg(doc)
        assert doc.count("<polyline") >= 4  # one curve per class
        assert "AUC" in doc

    def test_prf_bars_svg_valid(self, report):
        doc = prf_bars_svg(report)
        parse_svg(doc)
        assert "macro" in doc.lower()
        assert doc.count("<rect") >= 12  # 4 classes x 3 bars

    def test_timeline_svg_valid(self, timeline_inputs):
        series, anti, peaks = timeline_inputs
        doc = timeline_svg(series, anti, peaks, share_label="raw")
        parse_svg(doc)
        assert "(a) daily tweet volume" in doc
        assert "(b) per-category daily counts" in doc
        assert "(c) anti-vaccine share" in doc
        assert "raw" in doc
        assert doc.count("<circle") >= len(peaks.local_maxima)
        # peak date called out next to its marker
        assert peaks.local_maxima[0].date.isoformat() in doc

    def test_smoothed_label_shown(self, timeline_inputs):
        series, anti, peaks = timeline_inputs
        doc = timeline_svg(series, anti, peaks, share_label="smoothed, window 3")
        assert "smoothed, window 3" in doc

    def test_deterministic(self, report, timeline_inputs):
        series, anti, peaks = timeline_inputs
        assert confusion_svg(report.confusion) == confusion_svg(report.confusion)
        assert roc_svg(report) == roc_svg(report)
        assert prf_bars_svg(report) == prf_bars_svg(report)
        assert timeline_svg(series, anti, peaks, "raw") == timeline_svg(series, anti, peaks, "raw")

    def test_size_within_budget(self, report, timeline_inputs):
        series, anti, peaks = timeline_inputs
        for doc in (
            confusion_svg(report.confusion),
            roc_svg(report),
            prf_bars_svg(report),
            timeline_svg(series, anti, peaks, "raw"),
        ):
            assert len(doc.encode("utf-8")) < 1_000_000

    def test_escaping(self, report):
        # category names and numbers only; no raw ampersands or stray tags
        for doc in (confusion_svg(report.confusion), roc_svg(report), prf_bars_svg(report)):
            ET.fromstring(doc)  # would raise on bad escaping
