"""Inflection corpora: file formats, alphabets, class labels, splits.

Two TSV formats are understood.  Datasets carry one (lemma, form) pair per
row plus morphological tags and an inflection-class label::

    # lang=en columns=lemma,form,tags,class
    cry\tcried\tPST\tregular

Wug files carry nonce stems with candidate forms and mean human ratings::

    # lang=de rating_scale=1,5
    Bral\tBrale\t3.4\tPL;NEUT\te\trhyme

Tags within a column are ';'-separated.  The class column is required for
English datasets and optional for German, where missing labels are filled
by ``classify_german_suffix``.  The trailing wug column (item context,
e.g. rhyme vs. non-rhyme) is optional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

LANGUAGES = ("en", "de")

ENGLISH_CLASSES = ("regular", "irregular")
GERMAN_CLASSES = ("(e)n", "e", "zero", "er", "s")
OTHER_CLASS = "other"

PAD, BOS, EOS = 0, 1, 2
PAD_SYMBOL, BOS_SYMBOL, EOS_SYMBOL = "<pad>", "<s>", "</s>"


class CorpusError(Exception):
    """Base class for corpus file problems."""


class ParseError(CorpusError):
    """Structurally malformed file; carries the 1-based line number."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class ValidationError(CorpusError):
    """Well-formed file with inadmissible content."""


class UnknownSymbolError(CorpusError):
    """A string contains a symbol outside the alphabet."""


@dataclass(frozen=True)
class InflectionExample:
    lemma: str
    form: str
    tags: tuple[str, ...]
    cls: str


@dataclass(frozen=True)
class WugCandidate:
    form: str
    rating: float
    tags: tuple[str, ...]
    cls: str


@dataclass(frozen=True)
class WugItem:
    lemma: str
    candidates: tuple[WugCandidate, ...]
    context: str = ""


@dataclass(frozen=True)
class WugSet:
    lang: str
    scale: tuple[float, float]
    items: tuple[WugItem, ...]


# ---------------------------------------------------------------------------
# German plural classes

_DEUMLAUT = str.maketrans({"ä": "a", "ö": "o", "ü": "u", "Ä": "A", "Ö": "O", "Ü": "U"})


def classify_german_suffix(lemma: str, plural: str) -> str:
    """Suffix class of a German plural, one of GERMAN_CLASSES or 'other'.

    Umlaut is treated as orthogonal to suffixation, so both sides are
    de-umlauted before comparison, and the plural must be the lemma plus
    the suffix; a mere ``endswith`` check would misfile forms like
    Kind -> Kinderchen.
    """
    s = lemma.translate(_DEUMLAUT)
    p = plural.translate(_DEUMLAUT)
    if p == s:
        return "zero"
    if p == s + "s":
        return "s"
    if p == s + "er":
        return "er"
    if p == s + "en" or p == s + "n":
        return "(e)n"
    if p == s + "e":
        return "e"
    return OTHER_CLASS


# ---------------------------------------------------------------------------
# alphabet


class Alphabet:
    """Bidirectional symbol/id map over tags and characters.

    Ids 0..2 are pad, sequence-start, sequence-end; then tags in sorted
    order, then characters in sorted order.  Sources encode as tag ids
    followed by lemma characters; targets as form characters plus the
    end id.
    """

    def __init__(self, tags: Iterable[str], chars: Iterable[str]):
        tags = sorted(set(tags))
        chars = sorted(set(chars))
        clash = set(tags) & set(chars)
        if clash:
            raise ValidationError(f"tags collide with characters: {sorted(clash)}")
        for special in (PAD_SYMBOL, BOS_SYMBOL, EOS_SYMBOL):
            if special in tags or special in chars:
                raise ValidationError(f"reserved symbol in alphabet: {special}")
        self.symbols: tuple[str, ...] = (PAD_SYMBOL, BOS_SYMBOL, EOS_SYMBOL, *tags, *chars)
        self.tags = tuple(tags)
        self.chars = tuple(chars)
        self._index = {s: i for i, s in enumerate(self.symbols)}

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def id(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownSymbolError(f"symbol not in alphabet: {symbol!r}") from None

    def encode_source(self, tags: Sequence[str], lemma: str) -> list[int]:
        return [self.id(t) for t in tags] + [self.id(ch) for ch in lemma]

    def encode_target(self, form: str) -> list[int]:
        return [self.id(ch) for ch in form] + [EOS]

    def decode(self, ids: Iterable[int]) -> str:
        out = []
        for i in ids:
            if i == EOS:
                break
            if i in (PAD, BOS):
                continue
            try:
                out.append(self.symbols[i])
            except IndexError:
                raise UnknownSymbolError(f"id out of range: {i}") from None
        return "".join(out)


def build_alphabet(examples: Iterable[InflectionExample],
                   wug_sets: Iterable[WugSet] = ()) -> Alphabet:
    """Alphabet covering every tag and character the run can touch.

    Wug items are included so nonce stems never hit unknown-symbol errors
    at evaluation time.
    """
    tags: set[str] = set()
    chars: set[str] = set()
    for ex in examples:
        tags.update(ex.tags)
        chars.update(ex.lemma)
        chars.update(ex.form)
    for ws in wug_sets:
        for item in ws.items:
            chars.update(item.lemma)
            for cand in item.candidates:
                tags.update(cand.tags)
                chars.update(cand.form)
    return Alphabet(tags, chars)


# ---------------------------------------------------------------------------
# file parsing


def _read_lines(path) -> list[str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc
    return text.splitlines()


def _parse_header(path, lines: list[str], required: Sequence[str]) -> tuple[dict[str, str], int]:
    """Parse the leading '# key=value ...' line; returns (fields, first data line)."""
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        if not raw.startswith("#"):
            raise ParseError(path, lineno, "missing '# key=value' header line")
        fields: dict[str, str] = {}
        for token in raw[1:].split():
            if "=" not in token:
                raise ParseError(path, lineno, f"malformed header token {token!r}")
            key, value = token.split("=", 1)
            fields[key] = value
        for key in required:
            if key not in fields:
                raise ParseError(path, lineno, f"header missing {key}=")
        if fields.get("lang") not in LANGUAGES:
            raise ParseError(path, lineno, f"lang must be one of {LANGUAGES}")
        return fields, lineno
    raise ParseError(path, 1, "empty file")


def _split_tags(path, lineno: int, field: str) -> tuple[str, ...]:
    tags = tuple(t for t in field.split(";") if t)
    if not tags:
        raise ParseError(path, lineno, "empty tags field")
    return tags


def _check_class(path, lineno: int, lang: str, cls: str) -> None:
    """Refuse a class outside ENGLISH_CLASSES, or GERMAN_CLASSES and 'other'."""
    allowed = ENGLISH_CLASSES if lang == "en" else GERMAN_CLASSES + (OTHER_CLASS,)
    if cls not in allowed:
        raise ValidationError(f"{path}:{lineno}: {lang} class must be one of {allowed}, "
                              f"got {cls!r}")


def parse_dataset(path) -> tuple[str, list[InflectionExample]]:
    """Read a dataset file; returns (lang, examples).

    English rows must carry a class label in ENGLISH_CLASSES; German rows
    without one are classified from the form.
    """
    lines = _read_lines(path)
    header, header_line = _parse_header(path, lines, required=("lang", "columns"))
    lang = header["lang"]
    columns = header["columns"]
    if columns not in ("lemma,form,tags", "lemma,form,tags,class"):
        raise ParseError(path, header_line, f"unsupported columns declaration {columns!r}")
    ncols = 3 if columns == "lemma,form,tags" else 4
    if lang == "en" and ncols == 3:
        raise ValidationError(f"{path}: English datasets require a class column")

    examples: list[InflectionExample] = []
    for lineno, raw in enumerate(lines, start=1):
        if lineno <= header_line or not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != ncols:
            raise ParseError(path, lineno, f"expected {ncols} columns, got {len(parts)}")
        lemma, form, tagfield = parts[0], parts[1], parts[2]
        if not lemma or not form:
            raise ParseError(path, lineno, "empty lemma or form")
        tags = _split_tags(path, lineno, tagfield)
        cls = parts[3] if ncols == 4 else classify_german_suffix(lemma, form)
        _check_class(path, lineno, lang, cls)
        examples.append(InflectionExample(lemma, form, tags, cls))
    if not examples:
        raise ValidationError(f"{path}: no data rows")
    return lang, examples


def write_dataset(path, lang: str, examples: Sequence[InflectionExample]) -> None:
    if lang not in LANGUAGES:
        raise ValidationError(f"lang must be one of {LANGUAGES}, got {lang!r}")
    rows = [f"# lang={lang} columns=lemma,form,tags,class"]
    for ex in examples:
        rows.append(f"{ex.lemma}\t{ex.form}\t{';'.join(ex.tags)}\t{ex.cls}")
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def parse_wugs(path) -> WugSet:
    """Read a wug file: nonce lemmas, candidate forms, mean human ratings.
    Classes follow the dataset rules; the correlations key candidates by
    (lemma, form), so a pair may appear once; and a lemma's candidates
    carry one tag set, the one its productions are decoded from."""
    lines = _read_lines(path)
    header, header_line = _parse_header(path, lines, required=("lang", "rating_scale"))
    lang = header["lang"]
    scale_field = header["rating_scale"].split(",")
    if len(scale_field) != 2:
        raise ParseError(path, header_line, "rating_scale must be <lo>,<hi>")
    try:
        lo, hi = float(scale_field[0]), float(scale_field[1])
    except ValueError:
        raise ParseError(path, header_line, "rating_scale bounds must be numeric") from None
    if not lo < hi:
        raise ParseError(path, header_line, "rating_scale must satisfy lo < hi")

    by_lemma: dict[str, list[WugCandidate]] = {}
    contexts: dict[str, str] = {}
    order: list[str] = []
    for lineno, raw in enumerate(lines, start=1):
        if lineno <= header_line or not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) not in (5, 6):
            raise ParseError(path, lineno, f"expected 5 or 6 columns, got {len(parts)}")
        lemma, form, rating_field, tagfield, cls = parts[:5]
        context = parts[5] if len(parts) == 6 else ""
        if not lemma or not form:
            raise ParseError(path, lineno, "empty lemma or form")
        try:
            rating = float(rating_field)
        except ValueError:
            raise ParseError(path, lineno, f"rating is not a number: {rating_field!r}") from None
        if not lo <= rating <= hi:
            raise ValidationError(
                f"{path}:{lineno}: rating {rating} outside scale [{lo}, {hi}]"
            )
        tags = _split_tags(path, lineno, tagfield)
        _check_class(path, lineno, lang, cls)
        if lemma not in by_lemma:
            by_lemma[lemma] = []
            contexts[lemma] = context
            order.append(lemma)
        elif contexts[lemma] != context:
            raise ValidationError(
                f"{path}:{lineno}: conflicting contexts for lemma {lemma!r}"
            )
        elif by_lemma[lemma][0].tags != tags:
            raise ValidationError(f"{path}:{lineno}: conflicting tags for lemma {lemma!r}")
        if any(cand.form == form for cand in by_lemma[lemma]):
            raise ValidationError(f"{path}:{lineno}: repeated candidate {lemma!r} {form!r}")
        by_lemma[lemma].append(WugCandidate(form, rating, tags, cls))

    if not order:
        raise ValidationError(f"{path}: no data rows")
    items = tuple(
        WugItem(lemma, tuple(by_lemma[lemma]), contexts[lemma]) for lemma in order
    )
    return WugSet(lang, (lo, hi), items)


def write_wugs(path, wugs: WugSet) -> None:
    lo, hi = wugs.scale
    rows = [f"# lang={wugs.lang} rating_scale={lo:g},{hi:g}"]
    for item in wugs.items:
        for cand in item.candidates:
            row = f"{item.lemma}\t{cand.form}\t{cand.rating:g}\t{';'.join(cand.tags)}\t{cand.cls}"
            if item.context:
                row += f"\t{item.context}"
            rows.append(row)
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# splitting


def _split_sizes(n: int, ratios: Sequence[float]) -> list[int]:
    # round-half-up for every split but the last, each clamped to what
    # remains; the last takes the remainder
    sizes: list[int] = []
    for r in ratios[:-1]:
        sizes.append(min(math.floor(n * r + 0.5), n - sum(sizes)))
    sizes.append(n - sum(sizes))
    return sizes


def split_dataset(
    examples: Sequence[InflectionExample],
    ratios: Sequence[float] = (0.8, 0.1, 0.1),
    rng: np.random.Generator | None = None,
    stratify: Callable[[InflectionExample], str] | None = None,
) -> tuple[list[InflectionExample], ...]:
    """Shuffle and partition examples by ratio.

    With ``stratify``, each key group is split separately so every part
    keeps the group's overall proportion (e.g. rare irregulars appear in
    dev and test at their corpus rate instead of by luck of the draw).
    """
    if abs(sum(ratios) - 1.0) > 1e-9 or any(r < 0 for r in ratios):
        raise ValidationError(f"ratios must be non-negative and sum to 1, got {ratios}")
    if rng is None:
        rng = np.random.default_rng(0)
    groups: dict[str, list[InflectionExample]]
    if stratify is None:
        groups = {"": list(examples)}
    else:
        groups = {}
        for ex in examples:
            groups.setdefault(stratify(ex), []).append(ex)
    parts: list[list[InflectionExample]] = [[] for _ in ratios]
    for key in sorted(groups):
        members = groups[key]
        perm = rng.permutation(len(members))
        sizes = _split_sizes(len(members), ratios)
        start = 0
        for part, size in zip(parts, sizes):
            part.extend(members[i] for i in perm[start:start + size])
            start += size
    return tuple(parts)
