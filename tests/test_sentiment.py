import io
import re
from datetime import date, datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentistock.errors import PipelineError
from sentistock.market_data import Tweet
from sentistock.sentiment import (
    DailySentiment,
    Lexicon,
    LexiconEntry,
    SentimentScore,
    aggregate_daily,
    daily_sentiment_csv,
    load_lexicon,
    score_corpus,
    score_text,
    tokenize,
    _URL_RE,
)

from oracles import reference_score_polarity, reference_tokenize


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

    NAMED = {
        "upper-case-url": "Sell HTTP://X.CO/Deal now",
        "mixed-case-www": "see WwW.x/y Here",
        "mention-with-underscore": "hi @user_name, Rally",
        "email": "mail a@b.com Today",
        "nul": "up\x00down",
        "file-separator": "go www.x\x1cHome http://y\x1cAway",
        "underscore": "_big__win_",
        "sharp-s": "Straße STRASSE",
        "dotted-capital-i": "İstanbul İ",
        "final-sigma": "ΟΔΟΣ ΣΑΣ",
        "emoji": "moon🚀MOON 🚀",
        "lone-surrogate": "up\ud800Down",
        "non-ascii-upper-case-www": "voir WWW.café.com Ici",
        "long-s-scheme": "vente HTTP\u017f://x/y Là",  # only the "://" guard sees it
        "non-ascii-mention": "merci @ünïcode Très",
        "non-ascii-no-url-or-mention": "Ça monte, très bien",
    }

    @pytest.mark.parametrize("text", NAMED.values(), ids=NAMED.keys())
    def test_named_cases_equal_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)

    def test_only_w_matches_w_in_the_url_pattern(self):
        # tokenize runs _URL_RE on a non-ASCII text only when it holds "://"
        # or its lowercase holds "www.". That skips no URL only if no code
        # point besides w and W matches w under the pattern's flags (s, for
        # one, also matches U+017F).
        w = re.compile("w", _URL_RE.flags)
        assert [chr(c) for c in range(0x110000) if w.fullmatch(chr(c))] == ["W", "w"]

    # ASCII-only text takes the byte-table path, any other text the regex
    # path; the fragments hit both paths' guards and casing edge cases.
    FRAGMENTS = ("HTTP://", "https://", "wWw.", "www.", "://", "@a_b", "@", "_", ".", " ",
                 "\x1c", "\x00", "ß", "İ", "Σ", "🚀", "\ud800")
    ASCII_TEXT = st.lists(
        st.one_of(st.sampled_from([f for f in FRAGMENTS if f.isascii()]), st.text(st.characters(max_codepoint=127))),
        max_size=8,
    ).map("".join)
    ANY_TEXT = st.lists(st.one_of(st.sampled_from(FRAGMENTS), st.text()), max_size=8).map("".join)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(text=st.one_of(ASCII_TEXT, ANY_TEXT))
    def test_equals_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)


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


    # "never" is both a negator and a scoring term; the negator wins.
    OVERLAP = lex(
        entries=(
            LexiconEntry("good", 0.7),
            LexiconEntry("bad", -0.6),
            LexiconEntry("never", 0.4),
            LexiconEntry("very", 0.0, intensity=1.3),
            LexiconEntry("slightly", 0.9, intensity=0.5),
        ),
        negators=("not", "never"),
    )

    def test_negator_that_is_also_a_term_is_a_negator(self):
        assert score_text(["never", "good"], self.OVERLAP).polarity == reference_score_polarity(
            ["never", "good"], self.OVERLAP
        ) == pytest.approx(-0.35, abs=1e-12)
        assert score_text(["never"], self.OVERLAP).polarity == 0.0

    def test_overlapping_lexicon_matches_reference_randomized(self):
        rng = np.random.default_rng(13)
        vocab = list(self.OVERLAP.terms) + list(self.OVERLAP.negators) + ["filler"]
        for _ in range(500):
            tokens = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=rng.integers(0, 12))]
            assert score_text(tokens, self.OVERLAP).polarity == reference_score_polarity(tokens, self.OVERLAP)

    def test_score_corpus_matches_reference_per_tweet(self):
        rng = np.random.default_rng(17)
        words = ["Good", "BAD", "never", "not", "Very", "slightly", "filler", "Straße", "İ"]
        noise = ["http://x.co/Good", "WWW.bad.com", "@good", "#Good", "good!", "bad_good", "🚀"]
        buckets = {}
        for day in range(1, 21):
            tweets = []
            for k in range(int(rng.integers(0, 8))):
                picks = rng.integers(0, len(words) + len(noise), size=rng.integers(1, 10))
                text = " ".join((words + noise)[int(i)] for i in picks)
                stamp = datetime(2024, 1, day, 12, k, tzinfo=timezone.utc)
                tweets.append(Tweet(timestamp=stamp, text=text, id=f"{day}-{k}"))
            buckets[date(2024, 1, day)] = tweets
        scored = score_corpus(buckets, self.OVERLAP)
        assert list(scored) == list(buckets)
        for day, tweets in buckets.items():
            expected = [reference_score_polarity(reference_tokenize(t.text), self.OVERLAP) for t in tweets]
            assert [s.polarity for s in scored[day]] == expected


class TestSentimentScoreType:
    def test_label_follows_sign(self):
        assert SentimentScore(0.2).label == "positive"
        assert SentimentScore(-0.2).label == "negative"
        assert SentimentScore(0.0).label == "neutral"
        assert SentimentScore(-0.0).label == "neutral"


class TestAggregateDaily:
    def test_mixed_day(self):
        day = date(2020, 1, 6)
        scores = [SentimentScore(p) for p in (0.5, -0.2, 0.0)]
        (rec,) = aggregate_daily({day: scores})
        assert rec.pos_pct == pytest.approx(100 / 3)
        assert rec.neg_pct == pytest.approx(100 / 3)
        assert rec.neu_pct == pytest.approx(100 / 3)
        assert rec.tweet_count == 3

    def test_all_positive(self):
        day = date(2020, 1, 6)
        scores = [SentimentScore(0.3)] * 4
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
            scores = [SentimentScore(float(p)) for p in pols]
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
        with pytest.raises(PipelineError, match=r"polarity -1.5 outside \[-1, 1\]"):
            load_lexicon(io.BytesIO(tsv.encode()))

    def test_duplicate_term(self):
        tsv = "good\t0.7\t1.0\tterm\ngood\t0.5\t1.0\tterm\n"
        with pytest.raises(PipelineError, match="line 2: duplicate term 'good'"):
            load_lexicon(io.BytesIO(tsv.encode()))

    def test_duplicate_across_flags(self):
        tsv = "never\t0\t1.0\tnegator\nNever\t0.1\t1.0\tterm\n"
        with pytest.raises(PipelineError, match="line 2: duplicate term 'never'"):
            load_lexicon(io.BytesIO(tsv.encode()))

    MALFORMED = {
        "good\t0.7\t1.0": "expected 4 tab-separated columns",
        "good\tx\t1.0\tterm": "non-numeric polarity/intensity",
        "good\t0.7\t0\tterm": "intensity must be a positive real",
        "good\t0.7\t1.0\tadjective": "flag must be 'term' or 'negator'",
    }

    @pytest.mark.parametrize("row", MALFORMED)
    def test_malformed_rows(self, row):
        with pytest.raises(PipelineError, match=self.MALFORMED[row]):
            load_lexicon(io.BytesIO(f"{row}\n".encode()))

    @pytest.mark.parametrize("flag", ["term", "negator"])
    def test_token_with_whitespace_names_its_line(self, flag):
        tsv = f"good\t0.7\t1.0\tterm\nvery good\t0\t1.0\t{flag}\n"
        with pytest.raises(PipelineError) as info:
            load_lexicon(io.BytesIO(tsv.encode()))
        assert str(info.value) == f"line 2: bad lexicon {flag} 'very good' (lowercase, no whitespace)"

    @pytest.mark.parametrize("flag", ["term", "negator"])
    @pytest.mark.parametrize("word", ["profit-taking", "big_win", "don't"])
    def test_word_tokenize_splits_names_its_line(self, word, flag):
        tsv = f"good\t0.7\t1.0\tterm\n{word}\t0.2\t1.0\t{flag}\n"
        with pytest.raises(PipelineError) as info:
            load_lexicon(io.BytesIO(tsv.encode()))
        assert str(info.value) == (
            f"line 2: bad lexicon {flag} {word!r} (tokenize never yields it: letters and digits only)"
        )

    def test_dotted_capital_i_term_scores(self):
        lexicon = load_lexicon(io.BytesIO("İstanbul\t0.5\t1.0\tterm\n".encode()))
        assert list(lexicon.terms) == tokenize("İstanbul") == ["i\u0307stanbul"]
        assert score_text(tokenize("İSTANBUL rallies"), lexicon).polarity == 0.5

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(text=TestTokenize.ANY_TEXT)
    def test_every_token_is_a_valid_term(self, text):
        for token in tokenize(text):
            assert LexiconEntry(token, 0.5).term == token

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
