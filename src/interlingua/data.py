"""Text pipeline: tokenization, byte-pair encoding, vocabularies, corpora.

Lines are lowercased and split on whitespace with ASCII punctuation
separated into standalone tokens. A small greedy BPE learns merge rules
from word frequencies; applied segments carry a trailing ``@@`` on every
non-final piece so they reverse losslessly. Vocabularies map tokens to
dense ids behind four reserved entries, and parallel corpora keep both
sides aligned with full provenance of what was dropped.
"""

from __future__ import annotations

import hashlib
import json
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
    out = []
    for ch in line.strip().lower():
        if ch in PUNCTUATION:
            out.append(f" {ch} ")
        else:
            out.append(ch)
    return "".join(out).split()


def detokenize(tokens: list[str]) -> str:
    return " ".join(tokens)


@dataclass
class BpeModel:
    """Ordered merge rules over word-internal symbol pairs."""

    merges: list[tuple[str, str]]

    def __post_init__(self):
        self._cache: dict[str, tuple[str, ...]] = {}

    def segment_word(self, word: str) -> tuple[str, ...]:
        """Split one word into subword pieces (no continuation marks)."""
        hit = self._cache.get(word)
        if hit is not None:
            return hit
        syms = list(word)
        for pair in self.merges:
            if len(syms) == 1:
                break
            syms = _apply_merge(syms, pair)
        result = tuple(syms)
        self._cache[word] = result
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
    early when no adjacent pair is left.
    """
    if num_merges < 0:
        raise ConfigError(f"num_merges must be >= 0, got {num_merges}")
    word_freq = Counter()
    for line in lines:
        word_freq.update(tokenize(line))
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


def apply_bpe(model: BpeModel, line: str) -> list[str]:
    """Segment a line; non-final pieces of each word carry the @@ mark.

    Tokens that already end with the continuation mark pass through
    untouched, which makes re-application of the model a fixed point.
    """
    out = []
    for word in tokenize(line):
        if word.endswith(CONTINUE_MARK):
            out.append(word)
            continue
        pieces = model.segment_word(word)
        out.extend(p + CONTINUE_MARK for p in pieces[:-1])
        out.append(pieces[-1])
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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_bpe(path) -> BpeModel:
    raw = Path(path).read_text(encoding="utf-8").splitlines()
    if not raw or not raw[0].startswith("#merges"):
        raise CheckpointError(f"not a merge table: {path}")
    merges = []
    for line in raw[1:]:
        if not line:
            continue
        a, _, b = line.partition(" ")
        if not b:
            raise CheckpointError(f"malformed merge line in {path}: {line!r}")
        merges.append((a, b))
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
        Path(path).write_text(
            "\n".join(self.id_to_token[len(RESERVED_TOKENS) :]) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path) -> "Vocabulary":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return cls([ln for ln in lines if ln])


def build_vocabulary(segmented_lines, max_size: int) -> Vocabulary:
    """Most frequent tokens first, capped at max_size including reserved ids.

    Frequency ties resolve lexicographically so builds are deterministic.
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
) -> ParallelCorpus:
    """Read two aligned text files into id sequences.

    Pairs where either side exceeds ``max_words`` word tokens (counted
    before subword segmentation) are dropped together, so alignment is
    preserved by construction. Each retained row ends with eos.
    """
    if lang_x == lang_y:
        raise ConfigError(f"language tags must differ, both are {lang_x!r}")
    lines_x = Path(path_x).read_text(encoding="utf-8").splitlines()
    lines_y = Path(path_y).read_text(encoding="utf-8").splitlines()
    if len(lines_x) != len(lines_y):
        raise AlignmentError(
            f"{path_x} has {len(lines_x)} lines but {path_y} has {len(lines_y)}"
        )
    seq_x: list[np.ndarray] = []
    seq_y: list[np.ndarray] = []
    kept_lines = []
    dropped = 0
    for i, (lx, ly) in enumerate(zip(lines_x, lines_y)):
        if len(tokenize(lx)) > max_words or len(tokenize(ly)) > max_words:
            dropped += 1
            continue
        tokens_x = apply_bpe(bpe_x, lx) if bpe_x else tokenize(lx)
        tokens_y = apply_bpe(bpe_y, ly) if bpe_y else tokenize(ly)
        if not tokens_x or not tokens_y:
            dropped += 1
            continue
        seq_x.append(np.array(vocab_x.encode(tokens_x) + [EOS_ID], dtype=np.int32))
        seq_y.append(np.array(vocab_y.encode(tokens_y) + [EOS_ID], dtype=np.int32))
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
        },
    )


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
    size = dtype.itemsize * int(np.prod(shape))
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
    with open(path, "wb") as fh:
        write_header(fh, CORPUS_MAGIC, header)
        for lang in corpus.languages:
            for seq in corpus.sequences[lang]:
                fh.write(np.ascontiguousarray(seq, dtype="<i4").tobytes())


def read_corpus(path) -> ParallelCorpus:
    with open(path, "rb") as fh:
        header = read_header(fh, CORPUS_MAGIC, path)
        if header.get("version") != CORPUS_VERSION:
            raise CheckpointError(f"unsupported corpus version in {path}")
        languages = tuple(header_field(header, "languages", list, path, str))
        all_lengths = header_field(header, "lengths", dict, path)
        provenance = header_field(header, "provenance", dict, path)
        sequences: dict[str, list[np.ndarray]] = {}
        for lang in languages:
            # one read per side, split by the row lengths: a read per row
            # costs several times more on corpora of thousands of pairs
            lengths = header_field(all_lengths, lang, list, path, int)
            side = read_array(fh, "<i4", (sum(lengths),), path).astype(np.int32)
            sequences[lang] = np.split(side, np.cumsum(lengths)[:-1]) if lengths else []
        expect_end(fh, path)
    return ParallelCorpus(languages=languages, sequences=sequences, provenance=provenance)


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
