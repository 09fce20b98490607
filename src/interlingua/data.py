"""Text pipeline: tokenization, byte-pair encoding, vocabularies, corpora.

Lines are lowercased and split on whitespace with ASCII punctuation
separated into standalone tokens. A small greedy BPE learns merge rules
from word frequencies; applied segments carry a trailing ``@@`` on every
non-final piece so they reverse losslessly. Vocabularies map tokens to
dense ids behind four reserved entries, and parallel corpora keep both
sides aligned with full provenance of what was dropped.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import AlignmentError, CheckpointError, ConfigError
from .transformer import BOS_ID, EOS_ID, PAD_ID, RESERVED_TOKENS, UNK_ID

# characters split off as standalone tokens; '@' stays word-internal so
# segmented text survives re-tokenization
PUNCTUATION = ".,!?;:()[]{}\"'"

CONTINUE_MARK = "@@"

CORPUS_MAGIC = b"PLCB"
CORPUS_VERSION = 1


def tokenize(line: str) -> list[str]:
    """Lowercased word tokens with punctuation separated out."""
    line = line.strip().lower()
    # str.replace per mark present: str.translate with a multi-character
    # table takes a per-character slow path, about twice the time
    for c in PUNCTUATION:
        if c in line:
            line = line.replace(c, f" {c} ")
    return line.split()


def word_counts(lines) -> Counter:
    """How often each word token occurs in ``lines``."""
    return Counter(word for line in lines for word in tokenize(line))


def detokenize(tokens: list[str]) -> str:
    return " ".join(tokens)


@dataclass
class BpeModel:
    """Ordered merge rules over word-internal symbol pairs."""

    merges: list[tuple[str, str]]

    def __post_init__(self):
        # word -> its marked pieces; tuples, so no caller can change an entry
        self._memo: dict[str, tuple[str, ...]] = {}

    def segment_word(self, word: str) -> tuple[str, ...]:
        """One word's subword pieces, every non-final one marked with @@. A
        word that already ends with the mark stays whole, which makes
        re-application of the model a fixed point."""
        hit = self._memo.get(word)
        if hit is not None:
            return hit
        syms = [word] if word.endswith(CONTINUE_MARK) else list(word)
        for pair in self.merges:
            if len(syms) == 1:
                break
            syms = _apply_merge(syms, pair)
        result = tuple(s + CONTINUE_MARK for s in syms[:-1]) + (syms[-1],)
        self._memo[word] = result
        return result


def _apply_merge(syms: list[str], pair: tuple[str, str]) -> list[str]:
    """One greedy left-to-right pass replacing non-overlapping occurrences."""
    a, b = pair
    out = []
    i = 0
    while i < len(syms):
        if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def learn_bpe(lines, num_merges: int) -> BpeModel:
    """Greedy most-frequent-pair merges over the word frequency table.

    Ties between equally frequent pairs resolve lexicographically, so the
    learned merge list is deterministic for a given corpus. Learning stops
    early when no adjacent pair is left. ``lines`` are text lines, or the
    Counter that ``word_counts`` makes of them.
    """
    if num_merges < 0:
        raise ConfigError(f"num_merges must be >= 0, got {num_merges}")
    word_freq = lines if isinstance(lines, Counter) else word_counts(lines)
    vocab: dict[tuple[str, ...], int] = {tuple(w): f for w, f in word_freq.items()}
    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        pairs = Counter()
        for syms, freq in vocab.items():
            for i in range(len(syms) - 1):
                pairs[(syms[i], syms[i + 1])] += freq
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        vocab = {tuple(_apply_merge(list(syms), best)): f for syms, f in vocab.items()}
    return BpeModel(merges)


def apply_bpe(model: BpeModel, line: str | list[str]) -> list[str]:
    """Segment a line, or its words as ``tokenize`` returns them; non-final
    pieces of each word carry the @@ mark (see ``BpeModel.segment_word``).
    """
    memo, out = model._memo, []
    for word in tokenize(line) if isinstance(line, str) else line:
        out += memo.get(word) or model.segment_word(word)
    return out


def reverse_bpe(tokens: list[str]) -> list[str]:
    """Rejoin @@-marked pieces into words."""
    words = []
    current: list[str] = []
    for tok in tokens:
        if tok.endswith(CONTINUE_MARK):
            current.append(tok[: -len(CONTINUE_MARK)])
        else:
            current.append(tok)
            words.append("".join(current))
            current = []
    if current:  # dangling continuation, keep what we have
        words.append("".join(current))
    return words


def save_bpe(model: BpeModel, path):
    lines = [f"#merges {len(model.merges)}"]
    lines += [f"{a} {b}" for a, b in model.merges]
    replace_text(path, "\n".join(lines) + "\n")


def load_bpe(path) -> BpeModel:
    raw = read_text(path).splitlines()
    head = raw[0].split() if raw else []
    if len(head) != 2 or head[0] != "#merges" or not head[1].isdecimal():
        raise CheckpointError(f"not a merge table: {path}")
    merges = []
    for line in raw[1:]:
        if not line:
            continue
        a, _, b = line.partition(" ")
        if not b:
            raise CheckpointError(f"malformed merge line in {path}: {line!r}")
        merges.append((a, b))
    if len(merges) != int(head[1]):
        raise CheckpointError(f"{path} declares {head[1]} merges but holds {len(merges)}")
    return BpeModel(merges)


class Vocabulary:
    """Token/id mapping with four fixed reserved entries at ids 0..3."""

    def __init__(self, tokens):
        self.id_to_token: list[str] = list(RESERVED_TOKENS) + list(tokens)
        if len(set(self.id_to_token)) != len(self.id_to_token):
            raise ConfigError("duplicate tokens in vocabulary")
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self):
        return len(self.id_to_token)

    def encode(self, tokens: list[str]) -> list[int]:
        get = self.token_to_id.get
        return [get(t, UNK_ID) for t in tokens]

    def decode(self, ids, keep_special: bool = False) -> list[str]:
        special = {PAD_ID, BOS_ID, EOS_ID}
        out = []
        for i in ids:
            i = int(i)
            if not 0 <= i < len(self.id_to_token):
                raise ConfigError(f"id {i} outside vocabulary of {len(self)}")
            if not keep_special and i in special:
                continue
            out.append(self.id_to_token[i])
        return out

    def content_hash(self) -> str:
        payload = "\n".join(self.id_to_token).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def save(self, path):
        # reserved entries are implicit; one real token per line, ids by order
        replace_text(path, "\n".join(self.id_to_token[len(RESERVED_TOKENS) :]) + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        lines = read_text(path).splitlines()
        return cls([ln for ln in lines if ln])


def build_vocabulary(segmented_lines, max_size: int) -> Vocabulary:
    """Most frequent tokens first, capped at max_size including reserved ids.

    Items are token lists or token -> count mappings. Frequency ties
    resolve lexicographically so builds are deterministic.
    """
    if max_size <= len(RESERVED_TOKENS):
        raise ConfigError(f"max_size must exceed {len(RESERVED_TOKENS)}")
    freq = Counter()
    for tokens in segmented_lines:
        freq.update(tokens)
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = [tok for tok, _ in ranked[: max_size - len(RESERVED_TOKENS)]]
    return Vocabulary(keep)


@dataclass
class ParallelCorpus:
    """Aligned id sequences for a language pair, eos-terminated per row."""

    languages: tuple[str, str]
    sequences: dict[str, list[np.ndarray]]
    provenance: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.sequences[self.languages[0]])


def load_parallel(
    path_x,
    path_y,
    vocab_x: Vocabulary,
    vocab_y: Vocabulary,
    max_words: int = 50,
    *,
    bpe_x: BpeModel | None = None,
    bpe_y: BpeModel | None = None,
    lang_x: str = "x",
    lang_y: str = "y",
    max_len: int | None = None,
) -> ParallelCorpus:
    """Read two aligned text files into id sequences.

    Pairs where either side exceeds ``max_words`` word tokens (counted
    before subword segmentation), or, when ``max_len`` is given, where
    either side's ids plus eos exceed ``max_len`` (the longest sequence a
    model accepts), are dropped together, so alignment is preserved by
    construction. Each retained row ends with eos.
    """
    if lang_x == lang_y:
        raise ConfigError(f"language tags must differ, both are {lang_x!r}")
    lines_x = read_text(path_x).splitlines()
    lines_y = read_text(path_y).splitlines()
    if len(lines_x) != len(lines_y):
        raise AlignmentError(
            f"{path_x} has {len(lines_x)} lines but {path_y} has {len(lines_y)}"
        )
    seq_x: list[np.ndarray] = []
    seq_y: list[np.ndarray] = []
    kept_lines = []
    dropped = 0
    for i, (lx, ly) in enumerate(zip(lines_x, lines_y)):
        words_x, words_y = tokenize(lx), tokenize(ly)
        if len(words_x) > max_words or len(words_y) > max_words:
            dropped += 1
            continue
        tokens_x = apply_bpe(bpe_x, words_x) if bpe_x else words_x
        tokens_y = apply_bpe(bpe_y, words_y) if bpe_y else words_y
        if not tokens_x or not tokens_y:
            dropped += 1
            continue
        ids_x = vocab_x.encode(tokens_x) + [EOS_ID]
        ids_y = vocab_y.encode(tokens_y) + [EOS_ID]
        if max_len is not None and max(len(ids_x), len(ids_y)) > max_len:
            dropped += 1
            continue
        seq_x.append(np.array(ids_x, dtype=np.int32))
        seq_y.append(np.array(ids_y, dtype=np.int32))
        kept_lines.append(i)
    return ParallelCorpus(
        languages=(lang_x, lang_y),
        sequences={lang_x: seq_x, lang_y: seq_y},
        provenance={
            "source_files": {lang_x: str(path_x), lang_y: str(path_y)},
            "kept": len(kept_lines),
            "dropped": dropped,
            "kept_line_numbers": kept_lines,
            "max_words": max_words,
            "max_len": max_len,
        },
    )


@contextlib.contextmanager
def replacing(path):
    """A binary file handle whose bytes replace ``path`` only when the block
    ends without error: they go to a hidden temporary sibling, renamed over
    ``path`` at the end and removed on any error."""
    partial = Path(path).with_name(f".{Path(path).name}.partial")
    try:
        with open(partial, "wb") as fh:
            yield fh
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def replace_text(path, text: str):
    """``text`` as UTF-8 over ``path``, through ``replacing``."""
    with replacing(path) as fh:
        fh.write(text.encode("utf-8"))


def read_text(path) -> str:
    """A UTF-8 text file's contents; bytes that are not UTF-8 are one
    ConfigError that names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path} is not UTF-8 text: {err.reason} at byte {err.start}") from None


def write_header(fh, magic: bytes, header: dict):
    """Magic bytes, an 8-byte little-endian length, then the JSON header."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    fh.write(magic)
    fh.write(len(blob).to_bytes(8, "little"))
    fh.write(blob)


def read_header(fh, magic: bytes, path) -> dict:
    """Read what ``write_header`` wrote; any damage raises CheckpointError.

    The length field is checked against the file size before the header
    is read, so a damaged length never allocates a huge buffer.
    """
    if fh.read(len(magic)) != magic:
        raise CheckpointError(f"unrecognized magic or version in {path}")
    raw = fh.read(8)
    size = int.from_bytes(raw, "little")
    if len(raw) != 8 or size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CheckpointError(f"header length runs past the end of {path}")
    try:
        header = json.loads(fh.read(size).decode("utf-8"))
    except ValueError as err:  # undecodable bytes or malformed JSON
        raise CheckpointError(f"damaged header in {path}: {err}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"header of {path} is not a JSON object")
    return header


def header_field(header: dict, key: str, kind, path, item=None):
    """``header[key]`` checked to be a ``kind``, and with ``item`` every list
    entry or dict value an ``item``; else CheckpointError."""
    value = header.get(key)
    ok = key in header and isinstance(value, kind)
    if ok and item is not None and value is not None:
        ok = all(isinstance(e, item) for e in (value.values() if isinstance(value, dict) else value))
    if not ok:
        raise CheckpointError(f"damaged header in {path}: field {key!r} is missing or mistyped")
    return value


def read_array(fh, dtype: str, shape, path) -> np.ndarray:
    """The next array of ``shape`` from the payload; raises on a short read."""
    if not isinstance(shape, (list, tuple)) or not all(isinstance(n, int) and n >= 0 for n in shape):
        raise CheckpointError(f"damaged header in {path}: bad array shape {shape!r}")
    dtype = np.dtype(dtype)
    size = dtype.itemsize * math.prod(shape)
    buf = fh.read(size)
    if len(buf) != size:
        raise CheckpointError(f"truncated file: {path}")
    return np.frombuffer(buf, dtype=dtype).reshape(shape)


def expect_end(fh, path):
    """Raise CheckpointError unless the last array ended the file."""
    if fh.read(1):
        raise CheckpointError(f"trailing bytes after the last array in {path}")


def save_corpus(corpus: ParallelCorpus, path):
    """Compact deterministic binary: magic, json header, int32 payload."""
    header = {
        "version": CORPUS_VERSION,
        "languages": list(corpus.languages),
        "count": len(corpus),
        "lengths": {
            lang: [int(len(s)) for s in corpus.sequences[lang]] for lang in corpus.languages
        },
        "provenance": corpus.provenance,
    }
    with replacing(path) as fh:
        write_header(fh, CORPUS_MAGIC, header)
        for lang in corpus.languages:
            rows = [np.empty(0, "<i4"), *corpus.sequences[lang]]
            fh.write(np.concatenate(rows, dtype="<i4").tobytes())


def read_corpus(path) -> ParallelCorpus:
    with open(path, "rb") as fh:
        header = read_header(fh, CORPUS_MAGIC, path)
        if header.get("version") != CORPUS_VERSION:
            raise CheckpointError(f"unsupported corpus version in {path}")
        languages = tuple(header_field(header, "languages", list, path, str))
        count = header_field(header, "count", int, path)
        all_lengths = header_field(header, "lengths", dict, path)
        provenance = header_field(header, "provenance", dict, path)
        sequences: dict[str, list[np.ndarray]] = {}
        for lang in languages:
            # one read per side, sliced into rows by the row lengths: a read
            # per row, or np.split, costs several times more on corpora of
            # thousands of pairs
            lengths = header_field(all_lengths, lang, list, path, int)
            # every row ends with eos, so none is empty
            if len(lengths) != count or min(lengths, default=1) < 1:
                raise CheckpointError(f"damaged header in {path}: side {lang!r} does not hold {count} nonempty rows")
            side = read_array(fh, "<i4", (sum(lengths),), path).astype(np.int32)
            ends = list(itertools.accumulate(lengths, initial=0))
            sequences[lang] = [side[lo:hi] for lo, hi in zip(ends, ends[1:])]
        expect_end(fh, path)
    return ParallelCorpus(languages=languages, sequences=sequences, provenance=provenance)
