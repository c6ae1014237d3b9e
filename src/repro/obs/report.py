"""``repro report`` — a zero-dependency single-file HTML dashboard.

Renders everything the repository's committed benchmark baselines and a
session's optional artifacts already contain into one self-contained
HTML file: no JavaScript, no external assets, every chart a hand-rolled
inline SVG.  The file can be attached to a CI run, mailed around or
opened from disk and always shows the same thing.

Sections (each skipped gracefully when its input is absent):

* **one per perf tier** — drawn generically from the tier's committed
  ``benchmarks/BENCH_<tier>.json`` through the gate rows
  :data:`repro.obs.perf.TIERS` declares: a bar chart per floor/ceiling
  row, a value table per identity row, and the baseline's provenance
  (commit, usable cores, Python) or "env unrecorded";
* **fuzz coverage heatmap** — the ``strategy × rule`` grid of covered
  ``(strategy, rule, outcome)`` triples from the committed coverage
  ratchet (``tests/corpus/expected_coverage.json``);
* **flamegraph** — the calling-tree of a recorded trace (``--trace``, a
  JSONL event log), laid out from a :class:`~repro.obs.profiling.
  Profile`'s merged span paths.
"""

from __future__ import annotations

import hashlib
import json
from html import escape
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.perf import (
    BENCH_DIR,
    TIERS,
    Tier,
    baseline_path,
    flatten,
    is_number,
)
from repro.obs.profiling import Profile

#: src/repro/obs/report.py -> repo root
REPO_ROOT = Path(__file__).resolve().parents[3]
COVERAGE_JSON = REPO_ROOT / "tests" / "corpus" / "expected_coverage.json"

_BAR_H = 18
_ROW_GAP = 4
_LABEL_W = 170
_CHART_W = 560
_VALUE_W = 90

#: a small warm-to-cool palette cycled deterministically by name hash
_PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2",
    "#edc948", "#b07aa1", "#9c755f", "#bab0ac", "#ff9da7",
)


def _color(name: str) -> str:
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=2).digest()
    return _PALETTE[digest[0] % len(_PALETTE)]


def _bar_chart(rows: Sequence[Tuple[str, float, str]], unit: str = "") -> str:
    """Horizontal bars: ``(label, value, color)`` rows, scaled to max."""
    if not rows:
        return "<p class='empty'>no data</p>"
    peak = max(value for _, value, _ in rows) or 1.0
    label_w = max(_LABEL_W, 7 * max(len(label) for label, _, _ in rows))
    height = len(rows) * (_BAR_H + _ROW_GAP) + _ROW_GAP
    width = label_w + _CHART_W + _VALUE_W
    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='{width}' "
        f"height='{height}' role='img'>"
    ]
    for i, (label, value, color) in enumerate(rows):
        y = _ROW_GAP + i * (_BAR_H + _ROW_GAP)
        bar = max(1.0, _CHART_W * value / peak)
        text = f"{value:g}{unit}"
        parts.append(
            f"<text x='{label_w - 6}' y='{y + _BAR_H - 5}' "
            f"text-anchor='end' class='lbl'>{escape(label)}</text>"
            f"<rect x='{label_w}' y='{y}' width='{bar:.1f}' "
            f"height='{_BAR_H}' fill='{color}'/>"
            f"<text x='{label_w + bar + 5:.1f}' y='{y + _BAR_H - 5}' "
            f"class='val'>{escape(text)}</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _heatmap(
    row_names: Sequence[str],
    col_names: Sequence[str],
    values: Dict[Tuple[str, str], int],
) -> str:
    """A ``rows × cols`` grid; cell intensity scales with its count."""
    if not row_names or not col_names:
        return "<p class='empty'>no data</p>"
    cell, gap = 26, 2
    top = 70  # slanted column headers
    peak = max(values.values(), default=1) or 1
    width = _LABEL_W + len(col_names) * (cell + gap) + 20
    height = top + len(row_names) * (cell + gap) + 10
    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='{width}' "
        f"height='{height}' role='img'>"
    ]
    for j, col in enumerate(col_names):
        x = _LABEL_W + j * (cell + gap) + cell // 2
        parts.append(
            f"<text x='{x}' y='{top - 8}' class='lbl' "
            f"transform='rotate(-45 {x} {top - 8})'>{escape(col)}</text>"
        )
    for i, row in enumerate(row_names):
        y = top + i * (cell + gap)
        parts.append(
            f"<text x='{_LABEL_W - 6}' y='{y + cell - 8}' "
            f"text-anchor='end' class='lbl'>{escape(row)}</text>"
        )
        for j, col in enumerate(col_names):
            x = _LABEL_W + j * (cell + gap)
            count = values.get((row, col), 0)
            if count:
                alpha = 0.25 + 0.75 * count / peak
                parts.append(
                    f"<rect x='{x}' y='{y}' width='{cell}' height='{cell}' "
                    f"fill='#4e79a7' fill-opacity='{alpha:.2f}'>"
                    f"<title>{escape(row)} / {escape(col)}: {count}</title>"
                    f"</rect>"
                )
            else:
                parts.append(
                    f"<rect x='{x}' y='{y}' width='{cell}' height='{cell}' "
                    f"fill='#eee'/>"
                )
    parts.append("</svg>")
    return "".join(parts)


def _flame_svg(profile: Profile, width: int = 900) -> str:
    """Flamegraph layout of the profile's merged span tree: depth rows,
    widths proportional to cumulative time within the parent frame."""
    rows = profile.rows()
    if not rows:
        return "<p class='empty'>no span data in the trace</p>"
    roots = sorted(p for p in rows if len(p) == 1)
    children: Dict[Tuple[str, ...], List[Tuple[str, ...]]] = {}
    for path in rows:
        if len(path) > 1:
            children.setdefault(path[:-1], []).append(path)
    total = sum(rows[p][1] for p in roots) or 1.0
    depth = max(len(p) for p in rows)
    row_h = 20
    height = depth * row_h + 10
    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='{width}' "
        f"height='{height}' role='img'>"
    ]

    def emit(path: Tuple[str, ...], x: float, scale: float) -> None:
        count, total_us, self_us = rows[path]
        w = total_us * scale
        if w < 0.5:
            return
        y = (len(path) - 1) * row_h + 5
        name = path[-1]
        parts.append(
            f"<rect x='{x:.1f}' y='{y}' width='{w:.1f}' height='{row_h - 2}' "
            f"fill='{_color(name)}' rx='2'>"
            f"<title>{escape(';'.join(path))} — total {total_us:.0f}µs, "
            f"self {self_us:.0f}µs, ×{count}</title></rect>"
        )
        if w > 40:
            parts.append(
                f"<text x='{x + 4:.1f}' y='{y + row_h - 7}' class='frame' "
                f"clip-path='none'>{escape(name[: max(1, int(w / 7))])}</text>"
            )
        cursor = x
        for child in sorted(children.get(path, ())):
            emit(child, cursor, scale)
            cursor += rows[child][1] * scale

    cursor = 0.0
    scale = (width - 10) / total
    for root in roots:
        emit(root, cursor + 5, scale)
        cursor += rows[root][1] * scale
    parts.append("</svg>")
    return "".join(parts)


# -- section builders ----------------------------------------------------------


def _section(title: str, body: str, note: str = "") -> str:
    note_html = f"<p class='note'>{escape(note)}</p>" if note else ""
    return f"<section><h2>{escape(title)}</h2>{note_html}{body}</section>"


def _provenance(document: Dict[str, Any]) -> str:
    env = document.get("env")
    if not isinstance(env, dict):
        return "env unrecorded"
    return (
        f"commit {env.get('commit', '?')}, {env.get('usable_cores', '?')} "
        f"usable core(s), Python {env.get('python', '?')}"
    )


def tier_section(tier: Tier, document: Dict[str, Any]) -> str:
    """Every gate row of ``tier`` over its committed document: numeric
    floor/ceiling rows as bars, identity rows as a value table."""
    flat = flatten(document)
    color = _color(tier.name)
    body = []
    for gate in tier.gates:
        pattern = gate.pattern
        values = [(path, v) for path, v in flat.items() if pattern.fullmatch(path)]
        caption = f"{gate.path} — {gate.describe()}"
        if gate.min_cores:
            caption += f"; gated only with ≥ {gate.min_cores} usable cores"
        body.append(f"<h3>{escape(caption)}</h3>")
        numeric = [(path, float(v), color) for path, v in values if is_number(v)]
        if gate.kind != "identity" and len(numeric) == len(values) and values:
            body.append(_bar_chart(numeric, unit=f" {gate.unit}".rstrip()))
        elif values:
            rows = "".join(
                f"<tr><td>{escape(path)}</td><td>{escape(json.dumps(v))}</td></tr>"
                for path, v in values
            )
            body.append(
                f"<details><summary>{len(values)} committed value(s)</summary>"
                f"<table>{rows}</table></details>"
            )
        else:
            body.append("<p class='empty'>no committed value</p>")
    note = f"BENCH_{tier.name}.json — {_provenance(document)}"
    if tier.note:
        note += f"; {tier.note}"
    return _section(f"{tier.title} ({tier.name})", "".join(body), note)


def coverage_section(document: Dict) -> str:
    values: Dict[Tuple[str, str], int] = {}
    strategies, rules = set(), set()
    for key in document.get("keys", ()):
        parts = key.split("|")
        if len(parts) != 3:
            continue
        strategy, rule, _outcome = parts
        strategies.add(strategy)
        rules.add(rule)
        values[(strategy, rule)] = values.get((strategy, rule), 0) + 1
    return _section(
        "Fuzz coverage",
        _heatmap(sorted(strategies), sorted(rules), values),
        f"{document.get('points', len(values))} covered "
        "(strategy, rule, outcome) triples — cell intensity = outcomes per cell",
    )


def flame_section(profile: Profile, origin: str) -> str:
    return _section(
        "Flamegraph", _flame_svg(profile), f"span calling-tree of {origin}"
    )


_CSS = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto;
       max-width: 68rem; color: #222; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem;
     border-bottom: 1px solid #ddd; padding-bottom: .25rem; }
h3 { font-size: .95rem; margin: 1rem 0 .25rem; }
.note { color: #666; font-size: .85rem; margin: .25rem 0 .75rem; }
.empty { color: #999; font-style: italic; }
svg { display: block; margin: .5rem 0; }
svg .lbl { font: 11px system-ui, sans-serif; fill: #444; }
svg .val { font: 11px system-ui, sans-serif; fill: #222; }
svg .frame { font: 10px system-ui, sans-serif; fill: #fff; }
details table { font-size: .8rem; border-collapse: collapse; }
details td { padding: 0 .75rem 0 0; font-family: monospace; }
footer { margin-top: 3rem; color: #999; font-size: .8rem; }
"""


def render_report(
    tiers: Optional[Dict[str, Dict[str, Any]]] = None,
    coverage: Optional[Dict] = None,
    profile: Optional[Profile] = None,
    profile_origin: str = "recorded trace",
    title: str = "repro dashboard",
) -> str:
    """Assemble the full HTML document from whatever inputs exist;
    ``tiers`` maps a tier name to its committed document."""
    sections = [
        tier_section(TIERS[name], document)
        for name, document in (tiers or {}).items()
    ]
    if coverage:
        sections.append(coverage_section(coverage))
    if profile is not None and not profile.empty:
        sections.append(flame_section(profile, profile_origin))
    if not sections:
        sections.append(
            "<p class='empty'>no benchmark baselines or artifacts found</p>"
        )
    return (
        "<!DOCTYPE html>\n<html lang='en'><head><meta charset='utf-8'>"
        f"<title>{escape(title)}</title><style>{_CSS}</style></head><body>"
        f"<h1>{escape(title)}</h1>"
        + "".join(sections)
        + "<footer>generated by <code>repro report</code> — single file, "
        "inline SVG, no scripts</footer></body></html>\n"
    )


def _maybe_json(path: Path) -> Optional[Dict]:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def build_report(
    out: str,
    baselines: Path = BENCH_DIR,
    coverage_path: Path = COVERAGE_JSON,
    trace_path: Optional[str] = None,
    title: str = "repro dashboard",
) -> str:
    """Read every available input, render, write ``out``; returns the
    path.  Missing or malformed inputs skip their section — the
    dashboard degrades, it does not fail."""
    profile = None
    origin = "recorded trace"
    if trace_path:
        from repro.obs.exporters import read_jsonl

        profile = Profile()
        profile.add(read_jsonl(trace_path))
        origin = str(trace_path)
    documents = {
        name: _maybe_json(baseline_path(name, baselines)) for name in TIERS
    }
    html = render_report(
        tiers={name: doc for name, doc in documents.items() if doc},
        coverage=_maybe_json(coverage_path),
        profile=profile,
        profile_origin=origin,
        title=title,
    )
    Path(out).write_text(html, encoding="utf-8")
    return str(out)
