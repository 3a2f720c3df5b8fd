"""File formats, alphabet layout, German class labels, and splitting."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wugbench import corpus
from wugbench.corpus import (
    Alphabet,
    InflectionExample,
    ParseError,
    UnknownSymbolError,
    ValidationError,
    WugCandidate,
    WugItem,
    WugSet,
    build_alphabet,
    classify_german_suffix,
    parse_dataset,
    parse_wugs,
    split_dataset,
    write_dataset,
    write_wugs,
)

# ---------------------------------------------------------------------------
# German plural classes


@pytest.mark.parametrize(
    "lemma,plural,expected",
    [
        ("Frau", "Frauen", "(e)n"),
        ("Blume", "Blumen", "(e)n"),
        ("Leiter", "Leitern", "(e)n"),
        ("Hund", "Hunde", "e"),
        ("Gast", "Gäste", "e"),           # umlaut + e
        ("Lehrer", "Lehrer", "zero"),
        ("Mutter", "Mütter", "zero"),     # umlaut only
        ("Kind", "Kinder", "er"),
        ("Mann", "Männer", "er"),
        ("Auto", "Autos", "s"),
        ("Kind", "Kinderchen", "other"),  # not lemma + suffix
        ("Haus", "Boote", "other"),       # different stem entirely
        ("Museum", "Museen", "other"),    # stem-internal change
    ],
)
def test_classify_german_suffix(lemma, plural, expected):
    assert classify_german_suffix(lemma, plural) == expected


def test_german_class_umlaut_is_orthogonal():
    # umlaut on either side must not change the suffix decision
    assert classify_german_suffix("Vogel", "Vögel") == "zero"
    assert classify_german_suffix("Baum", "Bäume") == "e"
    assert classify_german_suffix("Wald", "Wälder") == "er"


# ---------------------------------------------------------------------------
# alphabet


def test_alphabet_id_layout():
    a = Alphabet(tags=["PST", "PL"], chars=["b", "a", "c"])
    # specials pinned, then sorted tags, then sorted characters
    assert a.symbols == ("<pad>", "<s>", "</s>", "PL", "PST", "a", "b", "c")
    assert a.id("<pad>") == corpus.PAD == 0
    assert a.id("<s>") == corpus.BOS == 1
    assert a.id("</s>") == corpus.EOS == 2
    assert a.id("PL") == 3
    assert a.id("a") == 5
    assert len(a) == 8


def test_alphabet_encode_decode():
    a = Alphabet(tags=["PST"], chars=list("abcd"))
    src = a.encode_source(["PST"], "bad")
    assert src == [a.id("PST"), a.id("b"), a.id("a"), a.id("d")]
    tgt = a.encode_target("cab")
    assert tgt[-1] == corpus.EOS
    assert a.decode(tgt) == "cab"
    # decode stops at EOS and skips pad/start
    assert a.decode([corpus.BOS, a.id("a"), corpus.PAD, a.id("b"), corpus.EOS,
                     a.id("c")]) == "ab"


def test_alphabet_rejects_collisions_and_unknowns():
    with pytest.raises(ValidationError):
        Alphabet(tags=["a"], chars=["a", "b"])
    with pytest.raises(ValidationError):
        Alphabet(tags=["<s>"], chars=["a"])
    a = Alphabet(tags=["PST"], chars=["a"])
    with pytest.raises(UnknownSymbolError):
        a.id("z")
    with pytest.raises(UnknownSymbolError):
        a.encode_target("az")
    with pytest.raises(UnknownSymbolError):
        a.decode([99])


def test_build_alphabet_covers_wug_forms():
    examples = [InflectionExample("ab", "abd", ("PST",), "regular")]
    wugs = WugSet(
        "en", (1.0, 7.0),
        (WugItem("qu", (WugCandidate("quz", 5.0, ("PST",), "regular"),)),),
    )
    a = build_alphabet(examples, [wugs])
    for ch in "abdquz":
        a.id(ch)
    a.id("PST")


def test_alphabet_equality():
    a = Alphabet(["T"], ["x", "y"])
    b = Alphabet(["T"], ["y", "x"])
    c = Alphabet(["T"], ["x"])
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# dataset files


def test_dataset_roundtrip(tmp_path):
    examples = [
        InflectionExample("walk", "walked", ("PST",), "regular"),
        InflectionExample("sing", "sang", ("PST",), "irregular"),
    ]
    path = tmp_path / "en.tsv"
    write_dataset(path, "en", examples)
    lang, back = parse_dataset(path)
    assert lang == "en"
    assert back == examples


def test_dataset_german_autoclassifies(tmp_path):
    path = tmp_path / "de.tsv"
    path.write_text(
        "# lang=de columns=lemma,form,tags\n"
        "Hund\tHunde\tPL\n"
        "Auto\tAutos\tPL\n"
        "Museum\tMuseen\tPL\n",
        encoding="utf-8",
    )
    _, examples = parse_dataset(path)
    assert [ex.cls for ex in examples] == ["e", "s", "other"]


def test_dataset_multi_tags(tmp_path):
    path = tmp_path / "de.tsv"
    path.write_text(
        "# lang=de columns=lemma,form,tags,class\n"
        "Kind\tKinder\tPL;NEUT\ter\n",
        encoding="utf-8",
    )
    _, examples = parse_dataset(path)
    assert examples[0].tags == ("PL", "NEUT")


def test_dataset_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(
        "# lang=en columns=lemma,form,tags,class\n"
        "walk\twalked\tPST\tregular\n"
        "broken row without tabs\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as info:
        parse_dataset(path)
    assert info.value.line == 3

    noheader = tmp_path / "noheader.tsv"
    noheader.write_text("walk\twalked\tPST\tregular\n", encoding="utf-8")
    with pytest.raises(ParseError, match="header"):
        parse_dataset(noheader)

    badlang = tmp_path / "badlang.tsv"
    badlang.write_text("# lang=fr columns=lemma,form,tags,class\nx\ty\tT\tregular\n",
                       encoding="utf-8")
    with pytest.raises(ParseError, match="lang"):
        parse_dataset(badlang)


def test_dataset_validation_errors(tmp_path):
    en3 = tmp_path / "en3.tsv"
    en3.write_text("# lang=en columns=lemma,form,tags\nwalk\twalked\tPST\n",
                   encoding="utf-8")
    with pytest.raises(ValidationError, match="class column"):
        parse_dataset(en3)

    badcls = tmp_path / "badcls.tsv"
    badcls.write_text(
        "# lang=en columns=lemma,form,tags,class\nwalk\twalked\tPST\tweak\n",
        encoding="utf-8",
    )
    with pytest.raises(ValidationError, match="class"):
        parse_dataset(badcls)

    empty = tmp_path / "empty.tsv"
    empty.write_text("# lang=en columns=lemma,form,tags,class\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="no data"):
        parse_dataset(empty)

    emptytags = tmp_path / "emptytags.tsv"
    emptytags.write_text(
        "# lang=en columns=lemma,form,tags,class\nwalk\twalked\t\tregular\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match="tags"):
        parse_dataset(emptytags)


def test_dataset_missing_file():
    with pytest.raises(corpus.CorpusError, match="cannot read"):
        parse_dataset("/nonexistent/nowhere.tsv")


def test_dataset_skips_blank_lines(tmp_path):
    path = tmp_path / "en.tsv"
    path.write_text(
        "\n# lang=en columns=lemma,form,tags,class\n\nwalk\twalked\tPST\tregular\n\n",
        encoding="utf-8",
    )
    _, examples = parse_dataset(path)
    assert len(examples) == 1


# ---------------------------------------------------------------------------
# wug files


def _wug_set():
    return WugSet(
        "de", (1.0, 5.0),
        (
            WugItem("Bral", (
                WugCandidate("Brale", 3.4, ("PL",), "e"),
                WugCandidate("Bralen", 2.1, ("PL",), "(e)n"),
            ), context="rhyme"),
            WugItem("Pund", (
                WugCandidate("Punds", 1.5, ("PL",), "s"),
            ), context="non-rhyme"),
        ),
    )


def test_wug_roundtrip(tmp_path):
    path = tmp_path / "wugs.tsv"
    original = _wug_set()
    write_wugs(path, original)
    back = parse_wugs(path)
    assert back == original


def test_wug_context_column_is_optional(tmp_path):
    path = tmp_path / "wugs.tsv"
    path.write_text(
        "# lang=de rating_scale=1,5\n"
        "Bral\tBrale\t3.4\tPL\te\n",
        encoding="utf-8",
    )
    ws = parse_wugs(path)
    assert ws.items[0].context == ""
    assert ws.scale == (1.0, 5.0)


def test_wug_groups_candidates_by_lemma(tmp_path):
    path = tmp_path / "wugs.tsv"
    path.write_text(
        "# lang=en rating_scale=1,7\n"
        "spling\tsplinged\t4.1\tPST\tregular\n"
        "crive\tcrived\t5.0\tPST\tregular\n"
        "spling\tsplang\t3.2\tPST\tirregular\n",
        encoding="utf-8",
    )
    ws = parse_wugs(path)
    assert [item.lemma for item in ws.items] == ["spling", "crive"]
    assert len(ws.items[0].candidates) == 2


def test_wug_validation(tmp_path):
    out_of_scale = tmp_path / "a.tsv"
    out_of_scale.write_text(
        "# lang=de rating_scale=1,5\nBral\tBrale\t9.0\tPL\te\n", encoding="utf-8"
    )
    with pytest.raises(ValidationError, match="scale"):
        parse_wugs(out_of_scale)

    conflicting = tmp_path / "b.tsv"
    conflicting.write_text(
        "# lang=de rating_scale=1,5\n"
        "Bral\tBrale\t3.0\tPL\te\trhyme\n"
        "Bral\tBralen\t2.0\tPL\t(e)n\tnon-rhyme\n",
        encoding="utf-8",
    )
    with pytest.raises(ValidationError, match="context"):
        parse_wugs(conflicting)

    badscale = tmp_path / "c.tsv"
    badscale.write_text("# lang=de rating_scale=5,1\nBral\tBrale\t3.0\tPL\te\n",
                        encoding="utf-8")
    with pytest.raises(ParseError, match="rating_scale"):
        parse_wugs(badscale)

    badrating = tmp_path / "d.tsv"
    badrating.write_text("# lang=de rating_scale=1,5\nBral\tBrale\thigh\tPL\te\n",
                         encoding="utf-8")
    with pytest.raises(ParseError) as info:
        parse_wugs(badrating)
    assert info.value.line == 2

    # a repeated (lemma, form) would overwrite the first rating in the
    # correlations, which key candidates by it
    repeated = tmp_path / "e.tsv"
    repeated.write_text("# lang=en rating_scale=1,7\n"
                        "spling\tsplinged\t4.1\tPST\tregular\n"
                        "spling\tsplang\t3.2\tPST\tirregular\n"
                        "spling\tsplinged\t2.0\tPST\tregular\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=f"{re.escape(str(repeated))}:4: repeated"):
        parse_wugs(repeated)

    # classes follow the dataset rules: English regular or irregular,
    # German the five classes or other
    valid = {"en": "regular", "de": "e"}
    for lang, cls in [("en", "regulr"), ("en", "other"), ("de", "en"), ("de", "regular")]:
        misspelled = tmp_path / f"f-{lang}-{cls}.tsv"
        misspelled.write_text(f"# lang={lang} rating_scale=1,7\n"
                              f"spling\tsplinged\t4.1\tPST\t{valid[lang]}\n"
                              f"spling\tsplang\t3.2\tPST\t{cls}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f"{re.escape(str(misspelled))}:3: .*class"):
            parse_wugs(misspelled)
    other = tmp_path / "g.tsv"
    other.write_text("# lang=de rating_scale=1,5\nBral\tBralu\t3.0\tPL\tother\n",
                     encoding="utf-8")
    assert parse_wugs(other).items[0].candidates[0].cls == "other"

    # an item's productions are decoded from one tag set, so its candidates
    # share it; reordered tags encode differently and are refused too
    for second in ("PL;FEM", "NEUT;PL"):
        mixed = tmp_path / f"h-{second}.tsv"
        mixed.write_text("# lang=de rating_scale=1,5\n"
                         "Bral\tBrale\t3.0\tPL;NEUT\te\n"
                         f"Bral\tBralen\t2.0\t{second}\t(e)n\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f"{re.escape(str(mixed))}:3: conflicting tags"):
            parse_wugs(mixed)


# ---------------------------------------------------------------------------
# splitting


def _examples(n, cls="regular"):
    return [InflectionExample(f"l{i}{cls[0]}", f"f{i}", ("PST",), cls) for i in range(n)]


def test_split_sizes_round_half_up():
    train, dev, test = split_dataset(_examples(10), (0.8, 0.1, 0.1))
    assert (len(train), len(dev), len(test)) == (8, 1, 1)
    # floor(n*r + 0.5) per leading part, remainder to the last
    train, dev, test = split_dataset(_examples(9), (0.8, 0.1, 0.1))
    assert (len(train), len(dev), len(test)) == (7, 1, 1)
    train, dev, test = split_dataset(_examples(5), (0.5, 0.3, 0.2))
    assert (len(train), len(dev), len(test)) == (3, 2, 0)
    # a leading part never takes more than remains
    train, dev, test = split_dataset(_examples(5), (0.9, 0.1, 0.0))
    assert (len(train), len(dev), len(test)) == (5, 0, 0)


def test_split_is_a_partition():
    examples = _examples(37)
    parts = split_dataset(examples, (0.6, 0.2, 0.2), rng=np.random.default_rng(5))
    combined = [ex for part in parts for ex in part]
    assert sorted(ex.lemma for ex in combined) == sorted(ex.lemma for ex in examples)
    assert len(set(ex.lemma for ex in combined)) == 37


def test_split_stratified_keeps_class_rates():
    examples = _examples(80, "regular") + _examples(20, "irregular")
    train, dev, test = split_dataset(
        examples, (0.8, 0.1, 0.1), rng=np.random.default_rng(1),
        stratify=lambda ex: ex.cls,
    )
    assert sum(ex.cls == "irregular" for ex in train) == 16
    assert sum(ex.cls == "irregular" for ex in dev) == 2
    assert sum(ex.cls == "irregular" for ex in test) == 2


def test_split_deterministic_given_rng():
    examples = _examples(30)
    a = split_dataset(examples, rng=np.random.default_rng(7))
    b = split_dataset(examples, rng=np.random.default_rng(7))
    assert a == b
    c = split_dataset(examples, rng=np.random.default_rng(8))
    assert a != c


def test_split_rejects_bad_ratios():
    with pytest.raises(ValidationError):
        split_dataset(_examples(10), (0.5, 0.1))
    with pytest.raises(ValidationError):
        split_dataset(_examples(10), (1.5, -0.5))


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=9999))
def test_split_partition_property(n, seed):
    examples = _examples(n)
    parts = split_dataset(examples, (0.8, 0.1, 0.1), rng=np.random.default_rng(seed))
    assert sum(len(p) for p in parts) == n
    assert sorted(ex.lemma for part in parts for ex in part) == sorted(
        ex.lemma for ex in examples
    )


german_stem = st.text(alphabet="abdfgklmnorstuäöü", min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(german_stem, st.sampled_from(["", "e", "er", "en", "n", "s"]))
def test_german_classifier_inverts_suffixation(stem, suffix):
    expected = {"": "zero", "e": "e", "er": "er", "en": "(e)n", "n": "(e)n",
                "s": "s"}[suffix]
    got = classify_german_suffix(stem, stem + suffix)
    # suffix boundaries can be ambiguous: a stem ending in 'e' plus 'n'
    # is also the stem plus 'en'; accept the classifier's fixed precedence
    allowed = {expected}
    if suffix == "er" and stem.endswith("e"):
        allowed.add("(e)n")  # "...e" + "er" never collides, but "...er" vs "e"+"r" cannot happen
    if suffix == "e" and stem.endswith(""):
        pass
    assert got in allowed or (suffix == "s" and got == "s")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(list("abcdXY")), min_size=1, max_size=8),
       st.lists(st.sampled_from(["PST", "PL", "T3"]), min_size=1, max_size=3))
def test_alphabet_roundtrip_property(chars, tags):
    a = Alphabet(tags, chars)
    form = "".join(chars)
    assert a.decode(a.encode_target(form)) == form
    src = a.encode_source(sorted(set(tags)), form)
    assert all(0 <= i < len(a) for i in src)
