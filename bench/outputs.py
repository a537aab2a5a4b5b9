"""Output check for every metrics CSV the benchmark writes.

At the default seed a CSV is compared with the reference written by the
seed commit (`reference/<workload>/<algorithm>.csv`): the columns round,
sim_time, up_bytes, down_bytes and p must match character for character;
train_loss may move by LOSS_RTOL relative (removing per-client work from
the objective shifts it by about 4e-16) and eval_acc by ACC_ATOL, one test
example of the 500 in the comparative test set.

At any seed the structure is checked: header, one row per round, finite
values, a clock that advances, byte counters that never decrease, rates
in (0, 1], evaluations exactly on the evaluation rounds, and a final
accuracy at or above the workload's floor.
"""

from __future__ import annotations

import math
from pathlib import Path

HEADER = "round,sim_time,up_bytes,down_bytes,p,train_loss,eval_acc"
EXACT = ("round", "sim_time", "up_bytes", "down_bytes", "p")
LOSS_RTOL = 1e-9
ACC_ATOL = 0.002

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str, csv_name: str) -> Path:
    return REFERENCE_DIR / workload / csv_name


def _rows(text: str) -> tuple[list[str], list[dict[str, str]]]:
    lines = text.splitlines()
    cols = lines[0].split(",") if lines else []
    return cols, [dict(zip(cols, line.split(","))) for line in lines[1:]]


def check_structure(text: str, rounds: int, eval_every: int, acc_floor: float) -> list[str]:
    """Problems found in a metrics CSV at any seed; empty when it passes."""
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        return [f"header is not {HEADER!r}"]
    if any(line.count(",") != HEADER.count(",") for line in lines[1:]):
        return ["wrong field count"]
    _, rows = _rows(text)
    if len(rows) != rounds:
        return [f"{len(rows)} rows for {rounds} rounds"]
    problems = []
    prev_time, prev_up, prev_down = 0.0, 0, 0
    for t, row in enumerate(rows, start=1):
        try:
            rnd, up, down = int(row["round"]), int(row["up_bytes"]), int(row["down_bytes"])
            sim_time, p = float(row["sim_time"]), float(row["p"])
            loss, acc = float(row["train_loss"]), float(row["eval_acc"])
        except ValueError:
            return [f"round {t}: non-numeric field"]
        if rnd != t:
            problems.append(f"row {t} holds round {rnd}")
        if not (math.isfinite(sim_time) and sim_time > prev_time):
            problems.append(f"round {t}: sim_time {sim_time} does not advance")
        if up < prev_up or down < prev_down:
            problems.append(f"round {t}: a byte counter decreased")
        if not 0.0 < p <= 1.0:
            problems.append(f"round {t}: rate {p} outside (0, 1]")
        evaluated = t % eval_every == 0 or t == rounds
        if evaluated and not (math.isfinite(loss) and 0.0 <= acc <= 1.0):
            problems.append(f"round {t}: evaluation missing or not finite")
        if not evaluated and not (math.isnan(loss) and math.isnan(acc)):
            problems.append(f"round {t}: evaluation on a round without one")
        prev_time, prev_up, prev_down = sim_time, up, down
    if not problems and float(rows[-1]["eval_acc"]) < acc_floor:
        problems.append(f"final eval_acc {rows[-1]['eval_acc']} below floor {acc_floor}")
    return problems


def compare_reference(text: str, reference: str) -> list[str]:
    """Problems against the reference CSV; empty when within tolerance."""
    cols, rows = _rows(text)
    ref_cols, ref_rows = _rows(reference)
    if cols != ref_cols or len(rows) != len(ref_rows):
        return ["shape differs from the reference"]
    for t, (row, ref) in enumerate(zip(rows, ref_rows), start=1):
        for col in EXACT:
            if row[col] != ref[col]:
                return [f"round {t}: {col} {row[col]} != reference {ref[col]}"]
        loss, ref_loss = float(row["train_loss"]), float(ref["train_loss"])
        acc, ref_acc = float(row["eval_acc"]), float(ref["eval_acc"])
        if math.isnan(ref_loss) != math.isnan(loss) or math.isnan(ref_acc) != math.isnan(acc):
            return [f"round {t}: evaluated on a different round than the reference"]
        if abs(loss - ref_loss) > LOSS_RTOL * max(1.0, abs(ref_loss)):
            return [f"round {t}: train_loss {loss!r} off reference {ref_loss!r}"]
        if abs(acc - ref_acc) > ACC_ATOL:
            return [f"round {t}: eval_acc {acc!r} off reference {ref_acc!r}"]
    return []
