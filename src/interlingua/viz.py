"""Export pooled sentence vectors and draw a 2D projection of them.

The projection is plain PCA: the top two eigenpairs of the covariance
from one symmetric eigensolver call.
A linear map is enough to eyeball whether the two languages' sentence
vectors occupy one shared region or two separate clusters, and unlike
the fancier neighborhood embeddings it is deterministic and cheap. The
method tag inside every output names the algorithm so nobody mistakes
the plot for anything else.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

from .data import ParallelCorpus, read_text, replace_text
from .exceptions import CompatibilityError, ContractError
from .latent import pool
from .training import System, _pad_rows
from .transformer import encode, pad_mask

PROJECTION_METHOD = "pca-eigh"

# colorblind-safe qualitative palette; the first two are the canonical pair
PALETTE = ("#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02")

SVG_WIDTH = 640
SVG_HEIGHT = 480
SVG_MARGIN = 56.0
POINT_RADIUS = 4.0


@dataclass
class EmbeddingDump:
    """Pooled sentence vectors tagged by language and sentence index."""

    dim: int
    model_hash: str
    rows: list[tuple[str, int, np.ndarray]]

    def __post_init__(self):
        for lang, idx, vec in self.rows:
            if vec.shape != (self.dim,):
                raise ContractError(
                    f"row ({lang!r}, {idx}) has shape {vec.shape}, header says {self.dim}"
                )

    def __len__(self):
        return len(self.rows)


@dataclass
class Projection2D:
    """Two coordinates per dump row plus how the projection was made."""

    rows: list[tuple[str, int, float, float]]
    method: str = PROJECTION_METHOD
    explained_variance: tuple[float, float] = (0.0, 0.0)
    total_variance: float = 0.0

    def __len__(self):
        return len(self.rows)


def export_embeddings(system: System, corpus: ParallelCorpus, languages=None) -> EmbeddingDump:
    """One pooled encoder vector per sentence per requested language."""
    langs = tuple(languages) if languages is not None else corpus.languages
    rows: list[tuple[str, int, np.ndarray]] = []
    for lang in langs:
        if lang not in system.modules:
            raise CompatibilityError(f"language {lang!r} not in system {system.languages}")
        if lang not in corpus.sequences:
            raise CompatibilityError(f"language {lang!r} not in corpus {corpus.languages}")
        sequences = corpus.sequences[lang]
        if not sequences:
            continue
        tokens = _pad_rows(sequences)
        pooled = pool(encode(system.modules[lang], tokens), pad_mask(tokens))
        for i in range(pooled.shape[0]):
            rows.append((lang, i, pooled.array[i].copy()))
    return EmbeddingDump(dim=system.config.d_model, model_hash=system.parameter_hash(), rows=rows)


def save_dump(dump: EmbeddingDump, path):
    """Tab-separated text: one header line, then one vector per row.

    Floats are written with repr so a load reproduces them bit-exactly.
    """
    lines = [f"# dim={dump.dim} model={dump.model_hash}"]
    for lang, idx, vec in dump.rows:
        lines.append("\t".join([lang, str(idx)] + [repr(float(v)) for v in vec]))
    replace_text(path, "\n".join(lines) + "\n")


def load_dump(path) -> EmbeddingDump:
    """Read what ``save_dump`` wrote; a malformed header or row is one
    ContractError that names the file."""
    lines = read_text(path).splitlines()
    head = re.fullmatch(r"# dim=(\d+) model=(.*)", lines[0]) if lines else None
    if head is None:
        raise ContractError(f"{path} is not an embedding dump: no '# dim=<int> model=<hash>' header")
    try:
        fields = [line.split("\t") for line in lines[1:] if line]
        rows = [(f[0], int(f[1]), np.array([float(v) for v in f[2:]])) for f in fields]
        return EmbeddingDump(dim=int(head[1]), model_hash=head[2], rows=rows)
    except (IndexError, ValueError, ContractError) as err:
        raise ContractError(f"{path} holds a malformed dump row: {err}") from None


def _principal_axes(dump: EmbeddingDump):
    if len(dump.rows) < 3:
        raise ContractError(f"projection needs at least 3 rows, got {len(dump.rows)}")
    x = np.stack([vec for _, _, vec in dump.rows]).astype(np.float64)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    values, vectors = np.linalg.eigh(cov)  # ascending eigenvalues
    top = [-1, -2]
    axes = vectors[:, top].T
    # deterministic orientation: each axis's largest-magnitude entry is positive
    axes *= np.sign(axes[[0, 1], np.argmax(np.abs(axes), axis=1)])[:, None]
    variances = tuple(max(float(v), 0.0) for v in values[top])
    return centered, axes, variances, float(np.trace(cov))


def pca_project(dump: EmbeddingDump) -> Projection2D:
    """Top-2 principal components of the mean-centered vectors."""
    centered, axes, variances, total = _principal_axes(dump)
    coords = centered @ axes.T
    rows = [
        (lang, idx, float(coords[i, 0]), float(coords[i, 1]))
        for i, (lang, idx, _) in enumerate(dump.rows)
    ]
    return Projection2D(
        rows=rows,
        method=PROJECTION_METHOD,
        explained_variance=variances,
        total_variance=total,
    )


def projection_components(dump: EmbeddingDump) -> np.ndarray:
    """The two principal axes themselves, for reconstruction checks."""
    return _principal_axes(dump)[1]


def language_silhouette(proj: Projection2D) -> float:
    """Mean silhouette of the 2D points clustered by language tag.

    Positive values mean the languages form separate clusters, values
    near zero mean they overlap. Diagnostic only; nothing asserts a
    threshold on it.
    """
    langs = sorted({lang for lang, _, _, _ in proj.rows})
    if len(langs) < 2:
        return 0.0
    pts = {lang: [] for lang in langs}
    for lang, _, px, py in proj.rows:
        pts[lang].append((px, py))
    arrays = {lang: np.array(p) for lang, p in pts.items()}
    scores = []
    for lang in langs:
        own = arrays[lang]
        others = np.concatenate([arrays[l] for l in langs if l != lang])
        for i in range(own.shape[0]):
            p = own[i]
            mates = np.delete(own, i, axis=0)
            if mates.shape[0] == 0:
                continue
            a = float(np.mean(np.linalg.norm(mates - p, axis=1)))
            b = float(np.mean(np.linalg.norm(others - p, axis=1)))
            denom = max(a, b)
            scores.append(0.0 if denom == 0.0 else (b - a) / denom)
    return float(np.mean(scores)) if scores else 0.0


def _scale(values, lo_out, hi_out):
    lo, hi = min(values), max(values)
    span = hi - lo
    if span == 0.0:
        mid = (lo_out + hi_out) / 2.0
        return lambda v: mid
    return lambda v: lo_out + (v - lo) * (hi_out - lo_out) / span


def render_scatter(proj: Projection2D, path, pair_lines: bool = False) -> str:
    """Write a self-contained SVG scatter of the projection; returns the text.

    Points are colored by language. With ``pair_lines`` the points of
    the first two languages are joined sentence index by sentence index,
    which shows how far apart each parallel pair landed.
    """
    if not proj.rows:
        raise ContractError("nothing to draw: projection has no rows")
    langs = sorted({lang for lang, _, _, _ in proj.rows})
    if len(langs) > len(PALETTE):
        raise ContractError(f"more languages ({len(langs)}) than colors ({len(PALETTE)})")
    color = {lang: PALETTE[i] for i, lang in enumerate(langs)}
    xs = [px for _, _, px, _ in proj.rows]
    ys = [py for _, _, _, py in proj.rows]
    sx = _scale(xs, SVG_MARGIN, SVG_WIDTH - SVG_MARGIN)
    # svg y grows downward, so the output range is flipped
    sy = _scale(ys, SVG_HEIGHT - SVG_MARGIN, SVG_MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{SVG_MARGIN}" y="{SVG_MARGIN}" width="{SVG_WIDTH - 2 * SVG_MARGIN}" '
        f'height="{SVG_HEIGHT - 2 * SVG_MARGIN}" fill="none" stroke="#444444"/>',
        f'<text x="{SVG_MARGIN}" y="{SVG_HEIGHT - SVG_MARGIN + 18}" font-size="11" '
        f'fill="#444444">{min(xs):.3g}</text>',
        f'<text x="{SVG_WIDTH - SVG_MARGIN}" y="{SVG_HEIGHT - SVG_MARGIN + 18}" '
        f'font-size="11" text-anchor="end" fill="#444444">{max(xs):.3g}</text>',
        f'<text x="{SVG_MARGIN - 6}" y="{SVG_HEIGHT - SVG_MARGIN}" font-size="11" '
        f'text-anchor="end" fill="#444444">{min(ys):.3g}</text>',
        f'<text x="{SVG_MARGIN - 6}" y="{SVG_MARGIN + 4}" font-size="11" '
        f'text-anchor="end" fill="#444444">{max(ys):.3g}</text>',
        f'<text x="{SVG_WIDTH / 2}" y="{SVG_HEIGHT - 12}" font-size="12" '
        f'text-anchor="middle" fill="#222222">component 1</text>',
        f'<text x="16" y="{SVG_HEIGHT / 2}" font-size="12" text-anchor="middle" '
        f'fill="#222222" transform="rotate(-90 16 {SVG_HEIGHT / 2})">component 2</text>',
        f'<text x="{SVG_MARGIN}" y="{SVG_MARGIN - 10}" font-size="11" fill="#666666">'
        f"method={escape(proj.method)} "
        f"var=({proj.explained_variance[0]:.3g}, {proj.explained_variance[1]:.3g})</text>",
    ]

    if pair_lines and len(langs) >= 2:
        first, second = langs[0], langs[1]
        by_index = {
            lang: sorted(
                (idx, px, py) for l2, idx, px, py in proj.rows if l2 == lang
            )
            for lang in (first, second)
        }
        for (_, ax, ay), (_, bx, by) in zip(by_index[first], by_index[second]):
            parts.append(
                f'<line class="pair" x1="{sx(ax):.2f}" y1="{sy(ay):.2f}" '
                f'x2="{sx(bx):.2f}" y2="{sy(by):.2f}" stroke="#bbbbbb" stroke-width="0.8"/>'
            )

    for lang, idx, px, py in proj.rows:
        parts.append(
            f'<circle class="pt" cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="{POINT_RADIUS}" '
            f'fill="{color[lang]}" fill-opacity="0.75">'
            f"<title>{escape(lang)} #{idx}</title></circle>"
        )

    for i, lang in enumerate(langs):
        ly = SVG_MARGIN + 16 + 18 * i
        lx = SVG_WIDTH - SVG_MARGIN - 90
        parts.append(
            f'<circle class="legend" cx="{lx}" cy="{ly - 4}" r="5" fill="{color[lang]}"/>'
        )
        parts.append(
            f'<text x="{lx + 12}" y="{ly}" font-size="12" fill="#222222">{escape(lang)}</text>'
        )

    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    replace_text(path, text)
    return text
