import io
from datetime import date

import numpy as np
import pytest

from sentistock.errors import DuplicateTerm, MalformedRow, PolarityOutOfRange
from sentistock.sentiment import (
    DailySentiment,
    Lexicon,
    LexiconEntry,
    SentimentScore,
    aggregate_daily,
    daily_sentiment_csv,
    load_lexicon,
    score_text,
    tokenize,
)

from oracles import reference_score_polarity


def lex(entries=(), negators=()) -> Lexicon:
    return Lexicon(
        terms={e.term: e for e in entries},
        negators=frozenset(negators),
    )


BASIC = lex(
    entries=(
        LexiconEntry("good", 0.7),
        LexiconEntry("bad", -0.6),
        LexiconEntry("very", 0.0, intensity=1.3),
    ),
    negators=("not",),
)


class TestTokenize:
    def test_plain_words(self):
        assert tokenize("Great results!") == ["great", "results"]

    def test_strips_urls_mentions_and_hash(self):
        assert tokenize("#AcmeMotors up @user http://x.co") == ["acmemotors", "up"]

    def test_empty(self):
        assert tokenize("") == []

    def test_www_urls_and_punctuation(self):
        assert tokenize("See www.example.com/x?y=1 ... profit-taking!") == ["see", "profit", "taking"]

    def test_unicode_words(self):
        assert tokenize("Café très bon") == ["café", "très", "bon"]

    def test_underscore_splits(self):
        assert tokenize("big_win") == ["big", "win"]


class TestScoreText:
    def test_single_term(self):
        score = score_text(["good"], BASIC)
        assert score.polarity == 0.7
        assert score.label == "positive"

    def test_negation_flips_and_damps(self):
        score = score_text(["not", "good"], BASIC)
        assert score.polarity == pytest.approx(-0.35, abs=1e-12)
        assert score.label == "negative"

    def test_intensifier_multiplies_next_term(self):
        score = score_text(["very", "good"], BASIC)
        assert score.polarity == pytest.approx(0.91, abs=1e-9)
        assert score.label == "positive"
        assert score.polarity == reference_score_polarity(["very", "good"], BASIC)

    def test_no_matches_is_neutral_zero(self):
        score = score_text(["unknown", "words"], BASIC)
        assert score.polarity == 0.0
        assert score.label == "neutral"

    def test_unknown_tokens_do_not_reset_modifiers(self):
        withgap = score_text(["not", "the", "good"], BASIC).polarity
        assert withgap == score_text(["not", "good"], BASIC).polarity

    def test_trailing_modifier_has_no_effect(self):
        assert score_text(["good", "not"], BASIC).polarity == 0.7

    def test_clip_to_unit_interval(self):
        strong = lex(
            entries=(LexiconEntry("boom", 0.9), LexiconEntry("mega", 0.0, intensity=1.9)),
        )
        assert score_text(["mega", "boom"], strong).polarity == 1.0

    def test_mean_of_clauses(self):
        score = score_text(["good", "bad"], BASIC)
        assert score.polarity == pytest.approx((0.7 - 0.6) / 2, abs=1e-12)

    def test_whitespace_invariance_through_tokenizer(self):
        a = score_text(tokenize("  not good \n"), BASIC)
        b = score_text(tokenize("not good"), BASIC)
        assert a == b

    def test_label_matches_sign_randomized(self):
        rng = np.random.default_rng(7)
        vocab = list(BASIC.terms) + list(BASIC.negators) + ["zzz", "qqq"]
        for _ in range(300):
            tokens = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=rng.integers(0, 8))]
            score = score_text(tokens, BASIC)
            assert -1.0 <= score.polarity <= 1.0
            expected = "positive" if score.polarity > 0 else "negative" if score.polarity < 0 else "neutral"
            assert score.label == expected

    def test_matches_reference_scorer_randomized(self):
        rng = np.random.default_rng(11)
        vocab = list(BASIC.terms) + list(BASIC.negators) + ["filler", "noise"]
        for _ in range(500):
            tokens = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=rng.integers(0, 12))]
            assert score_text(tokens, BASIC).polarity == reference_score_polarity(tokens, BASIC)


class TestSentimentScoreType:
    def test_from_polarity_labels(self):
        assert SentimentScore.from_polarity(0.2).label == "positive"
        assert SentimentScore.from_polarity(-0.2).label == "negative"
        assert SentimentScore.from_polarity(0.0).label == "neutral"

    def test_contradictory_label_rejected(self):
        with pytest.raises(ValueError):
            SentimentScore(polarity=0.5, label="negative")


class TestAggregateDaily:
    def test_mixed_day(self):
        day = date(2020, 1, 6)
        scores = [SentimentScore.from_polarity(p) for p in (0.5, -0.2, 0.0)]
        (rec,) = aggregate_daily({day: scores})
        assert rec.pos_pct == pytest.approx(100 / 3)
        assert rec.neg_pct == pytest.approx(100 / 3)
        assert rec.neu_pct == pytest.approx(100 / 3)
        assert rec.tweet_count == 3

    def test_all_positive(self):
        day = date(2020, 1, 6)
        scores = [SentimentScore.from_polarity(0.3)] * 4
        (rec,) = aggregate_daily({day: scores})
        assert (rec.pos_pct, rec.neg_pct, rec.neu_pct, rec.tweet_count) == (100.0, 0.0, 0.0, 4)

    def test_empty_day_is_fully_neutral(self):
        (rec,) = aggregate_daily({date(2020, 1, 6): []})
        assert (rec.pos_pct, rec.neg_pct, rec.neu_pct, rec.tweet_count) == (0.0, 0.0, 100.0, 0)

    def test_output_ascending_by_date(self):
        days = {date(2020, 1, 8): [], date(2020, 1, 6): [], date(2020, 1, 7): []}
        out = aggregate_daily(days)
        assert [r.date for r in out] == sorted(days)

    def test_percentages_sum_and_counts_conserved_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            pols = rng.uniform(-1, 1, size=n)
            pols[rng.uniform(size=n) < 0.2] = 0.0
            scores = [SentimentScore.from_polarity(float(p)) for p in pols]
            (rec,) = aggregate_daily({date(2020, 1, 6): scores})
            assert abs(rec.pos_pct + rec.neg_pct + rec.neu_pct - 100.0) <= 1e-9
            counts = (
                round(rec.pos_pct * n / 100)
                + round(rec.neg_pct * n / 100)
                + round(rec.neu_pct * n / 100)
            )
            assert counts == rec.tweet_count == n


class TestDailySentimentType:
    def test_zero_count_must_be_neutral(self):
        with pytest.raises(ValueError):
            DailySentiment(date(2020, 1, 6), 50.0, 50.0, 0.0, 0)

    def test_sum_must_be_100(self):
        with pytest.raises(ValueError):
            DailySentiment(date(2020, 1, 6), 50.0, 50.0, 10.0, 4)


class TestLoadLexicon:
    def test_basic_load(self):
        tsv = "good\t0.7\t1.0\tterm\nnot\t0\t1.0\tnegator\n"
        stream = io.BytesIO(tsv.encode())
        lexicon = load_lexicon(stream)
        assert stream.closed is False  # the caller's stream stays the caller's
        assert lexicon.terms["good"].polarity == 0.7
        assert "not" in lexicon.negators

    def test_header_line_skipped(self):
        tsv = "term\tpolarity\tintensity\tflag\ngood\t0.7\t1.0\tterm\n"
        lexicon = load_lexicon(io.BytesIO(tsv.encode()))
        assert len(lexicon.terms) == 1

    def test_polarity_out_of_range(self):
        tsv = "bad\t-1.5\t1.0\tterm\n"
        with pytest.raises(PolarityOutOfRange):
            load_lexicon(io.BytesIO(tsv.encode()))

    def test_duplicate_term(self):
        tsv = "good\t0.7\t1.0\tterm\ngood\t0.5\t1.0\tterm\n"
        with pytest.raises(DuplicateTerm):
            load_lexicon(io.BytesIO(tsv.encode()))

    def test_duplicate_across_flags(self):
        tsv = "never\t0\t1.0\tnegator\nNever\t0.1\t1.0\tterm\n"
        with pytest.raises(DuplicateTerm):
            load_lexicon(io.BytesIO(tsv.encode()))

    @pytest.mark.parametrize(
        "row",
        [
            "good\t0.7\t1.0",               # wrong column count
            "good\tx\t1.0\tterm",            # non-numeric polarity
            "good\t0.7\t0\tterm",            # non-positive intensity
            "good\t0.7\t1.0\tadjective",     # unknown flag
        ],
    )
    def test_malformed_rows(self, row):
        with pytest.raises(MalformedRow):
            load_lexicon(io.BytesIO(f"{row}\n".encode()))

    def test_terms_lowercased(self):
        tsv = "GOOD\t0.7\t1.0\tterm\n"
        lexicon = load_lexicon(io.BytesIO(tsv.encode()))
        assert "good" in lexicon.terms


class TestDailyCsv:
    def test_columns_and_rows(self):
        recs = [
            DailySentiment(date(2020, 1, 6), 50.0, 25.0, 25.0, 4),
            DailySentiment(date(2020, 1, 7), 0.0, 0.0, 100.0, 0),
        ]
        text = daily_sentiment_csv(recs)
        lines = text.strip().splitlines()
        assert lines[0] == "date,pos_pct,neg_pct,neu_pct,tweet_count"
        assert lines[1].startswith("2020-01-06,50.0,25.0,25.0,4")
        assert len(lines) == 3
