"""Resilience classification and damage scoring for fault campaigns.

A fault-injection run evaluates a mutated netlist on a batch of probe
inputs and compares against the fault-free expectation.  Each run lands
in one of three classes:

* ``masked`` — every probe output is correct; the fault never reaches a
  primary output (logical redundancy, e.g. the prefix sorter's count
  MSB stuck at 0).
* ``detected`` — some wrong output row is *non-monotone*.  A 0-1 output
  that is not of the form ``0...01...1`` is self-evidently broken: an
  output-only sortedness checker (the cheapest possible on-line monitor)
  flags it without knowing the input.
* ``silent-corruption`` — every wrong row still *looks* sorted
  (monotone) but has the wrong content (ones count changed).  This is
  the dangerous class: the sorter emits a plausible answer that no
  output-side monitor can reject.

Damage is scored on the wrong rows with standard displacement measures,
vectorized for 0-1 sequences:

* ``inversions`` — number of (1 before 0) pairs, which for binary
  sequences equals the Kendall-tau distance to the sorted arrangement;
* ``displacement`` — total leftward displacement of the 1s from their
  sorted slots (the footrule distance restricted to the ones);
* ``hamming`` — positions differing from the true sorted output;
* ``popcount_delta`` — ones gained/lost, i.e. how far the output is
  from being a permutation of the input at all.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..core.sequences import monotone_rows
from .tables import format_table

MASKED = "masked"
DETECTED = "detected"
SILENT = "silent-corruption"
OUTCOMES: Tuple[str, ...] = (MASKED, DETECTED, SILENT)


def _as_batch(bits) -> np.ndarray:
    a = np.asarray(bits, dtype=np.uint8)
    if a.ndim == 1:
        a = a[None, :]
    return a


def row_inversions(out) -> np.ndarray:
    """Kendall-tau distance of each 0-1 row to its sorted arrangement.

    A (1 before 0) pair is exactly one adjacent-transposition of work;
    counted as ``sum over zeros of (ones strictly before them)``.
    """
    a = _as_batch(out)
    ones_before = np.cumsum(a, axis=1, dtype=np.int64) - a
    return ((1 - a.astype(np.int64)) * ones_before).sum(axis=1)


def ones_displacement(out) -> np.ndarray:
    """Total displacement of each row's 1s from their sorted positions.

    With ``k`` ones in a length-``n`` row, sorted order puts them at
    positions ``n-k .. n-1`` (sum ``k*n - k(k+1)/2``); the metric is
    that ideal position sum minus the actual one (always >= 0).
    """
    a = _as_batch(out)
    n = a.shape[1]
    k = a.sum(axis=1, dtype=np.int64)
    ideal = k * n - (k * (k + 1)) // 2
    actual = (a.astype(np.int64) * np.arange(n, dtype=np.int64)).sum(axis=1)
    return ideal - actual


def classify(out, expected) -> str:
    """Classify one fault run (see module docstring for the classes)."""
    a, e = _as_batch(out), _as_batch(expected)
    if a.shape != e.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {e.shape}")
    wrong = (a != e).any(axis=1)
    if not wrong.any():
        return MASKED
    if (~monotone_rows(a[wrong])).any():
        return DETECTED
    return SILENT


def classify_with_alarms(out, alarms, expected) -> str:
    """Classify a fault run on *self-checking* hardware.

    ``alarms`` is the per-row alarm matrix (or vector) emitted by the
    concurrent checkers of :mod:`repro.circuits.checkers`.  A wrong row
    counts as detected if it is non-monotone (the offline criterion of
    :func:`classify`) **or** any alarm fired on it — the checkers turn
    previously-silent monotone-but-wrong outputs into detections.
    ``silent-corruption`` survives only if some wrong row is monotone
    *and* alarm-free.
    """
    a, e = _as_batch(out), _as_batch(expected)
    if a.shape != e.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {e.shape}")
    al = np.asarray(alarms, dtype=bool)
    if al.ndim == 2:
        al = al.any(axis=1)
    if al.shape != (a.shape[0],):
        raise ValueError(
            f"alarms must be per-row: got {al.shape} for batch {a.shape}"
        )
    wrong = (a != e).any(axis=1)
    if not wrong.any():
        return MASKED
    undetected = wrong & monotone_rows(a) & ~al
    return SILENT if undetected.any() else DETECTED


def alarm_stats(out, alarms, expected) -> Dict[str, float]:
    """Alarm quality over one fault run on self-checking hardware.

    * ``coverage`` — fraction of wrong rows on which an alarm fired;
    * ``false_alarm_rate`` — fraction of *correct* rows that alarmed
      (should be 0 for a fault outside the checker itself);
    * ``alarmed_rows`` / ``wrong_rows`` — the raw counts.
    """
    a, e = _as_batch(out), _as_batch(expected)
    al = np.asarray(alarms, dtype=bool)
    if al.ndim == 2:
        al = al.any(axis=1)
    wrong = (a != e).any(axis=1)
    n_wrong = int(wrong.sum())
    n_right = int((~wrong).sum())
    return {
        "alarmed_rows": int(al.sum()),
        "wrong_rows": n_wrong,
        "coverage": float(al[wrong].mean()) if n_wrong else 1.0,
        "false_alarm_rate": float(al[~wrong].mean()) if n_right else 0.0,
    }


def damage_metrics(out, expected) -> Dict[str, float]:
    """Damage scores over the wrong rows of one fault run.

    Returns zeros (with ``wrong_rows == 0``) for a fully masked run.
    ``kendall_norm`` divides inversions by the per-row maximum
    ``k * (n - k)`` so runs of different widths are comparable.
    """
    a, e = _as_batch(out), _as_batch(expected)
    wrong = (a != e).any(axis=1)
    n_wrong = int(wrong.sum())
    if n_wrong == 0:
        return {
            "wrong_rows": 0,
            "wrong_frac": 0.0,
            "mean_inversions": 0.0,
            "max_inversions": 0,
            "mean_displacement": 0.0,
            "mean_hamming": 0.0,
            "max_popcount_delta": 0,
            "kendall_norm": 0.0,
        }
    aw, ew = a[wrong], e[wrong]
    n = aw.shape[1]
    inv = row_inversions(aw)
    k = aw.sum(axis=1, dtype=np.int64)
    kmax = np.maximum(k * (n - k), 1)
    pop_delta = np.abs(k - ew.sum(axis=1, dtype=np.int64))
    return {
        "wrong_rows": n_wrong,
        "wrong_frac": float(n_wrong / a.shape[0]),
        "mean_inversions": float(inv.mean()),
        "max_inversions": int(inv.max()),
        "mean_displacement": float(ones_displacement(aw).mean()),
        "mean_hamming": float((aw != ew).sum(axis=1).mean()),
        "max_popcount_delta": int(pop_delta.max()),
        "kendall_norm": float((inv / kmax).mean()),
    }


def summarize(records: Iterable[dict]) -> List[dict]:
    """Aggregate campaign records into per-(network, fault kind) rows.

    Each record needs ``network``, ``kind``, ``outcome``, and a
    ``damage`` dict as produced by :func:`damage_metrics`.  Rows are
    sorted by network then kind and carry outcome counts, rates, and
    mean damage over the non-masked runs.
    """
    groups: Dict[Tuple[str, str], List[dict]] = {}
    for r in records:
        groups.setdefault((r["network"], r["kind"]), []).append(r)
    rows = []
    for (network, kind), recs in sorted(groups.items()):
        total = len(recs)
        counts = {o: sum(1 for r in recs if r["outcome"] == o) for o in OUTCOMES}
        unmasked = [r for r in recs if r["outcome"] != MASKED]
        mean_of = lambda key: (
            float(np.mean([r["damage"][key] for r in unmasked])) if unmasked else 0.0
        )
        rows.append(
            {
                "network": network,
                "kind": kind,
                "total": total,
                **{o: counts[o] for o in OUTCOMES},
                "detected_rate": counts[DETECTED] / total if total else 0.0,
                "masked_rate": counts[MASKED] / total if total else 0.0,
                "silent_rate": counts[SILENT] / total if total else 0.0,
                "mean_inversions": mean_of("mean_inversions"),
                "mean_wrong_frac": mean_of("wrong_frac"),
                "divergences": sum(int(r.get("divergences", 0)) for r in recs),
            }
        )
    return rows


def format_resilience_table(summary: Sequence[dict], title: str = "Fault resilience") -> str:
    """Render :func:`summarize` rows with the shared table formatter."""
    headers = [
        "network", "kind", "runs", "masked", "detected", "silent",
        "detected%", "silent%", "mean inv", "diverg",
    ]
    rows = [
        [
            r["network"],
            r["kind"],
            r["total"],
            r[MASKED],
            r[DETECTED],
            r[SILENT],
            f"{100 * r['detected_rate']:.1f}",
            f"{100 * r['silent_rate']:.1f}",
            f"{r['mean_inversions']:.2f}",
            r["divergences"],
        ]
        for r in summary
    ]
    return format_table(headers, rows, title=title)
