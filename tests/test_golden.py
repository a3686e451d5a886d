"""Golden fixtures: the stored bytes of small `schedule`, `game`, `mfe` and `bounds` outputs.

Each case's outputs live under `tests/golden/<case>/`, and the test compares
a fresh run's files with them byte for byte. The `schedule` and `game`
files were first written by the per-step simulation loop that the block
kernel replaced, and the `mfe_report.json` files by the per-type, per-step
NumPy loop of the mean-field operator that the float recursions replaced,
so they show that a seed maps to the same bytes across engine versions, not
only across two runs of one build. The equilibrium report holds the mu
window, K3, the gains, the residual and the Picard iteration count, so it
pins every bit of the fixed-point solve. The `bounds-p0` file pins a p = 0
report without a `tail` key, and the manifests' `config_hash`es pin the
scenario documents' keys and values.

A failure reports what moved, per JSON key (its dotted path) or CSV column:
how many values changed, the largest absolute and relative change, and the
keys added or removed. A failure means the output changed: find out why
before rewriting the files. After a deliberate output change,

    PYTHONPATH=src python tests/test_golden.py

rewrites every stored file that moved and prints the same report for each;
the change's CHANGES.md entry quotes it.
"""

import csv
import io
import json
import math
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from aoi_mfg.cli import _dumps, main

from reference import DEFAULT_DOCS, TWO_STATE_DOCS

GOLDEN_DIR = Path(__file__).parent / "golden"

# the data files each command writes; its manifest holds wall-clock times
OUTPUTS = {"schedule": ("fig2.csv",), "game": ("fig3a.csv", "fig3b.csv"),
           "mfe": ("mfe_report.json",), "bounds": ("bounds_report.json",)}

# the default set with its unstable pole moved from 1.15 to 1.3
POLE_DOCS = DEFAULT_DOCS[:2] + [dict(DEFAULT_DOCS[2], A=1.3)]

CASES = {
    # default N-sweep 5..100 at alpha = 25/100, relaxed and MATB on 2 seeds each
    "schedule-sweep": ("schedule", {"N": 100, "capacity": 25, "p": 0.2, "T": 300,
                                    "types": DEFAULT_DOCS}, ["--runs", "2"]),
    # per-seed rows on a perfect channel: adds the max_aoi column
    "schedule-p0-seeds": ("schedule", {"N": 40, "capacity": 10, "p": 0.0, "T": 400,
                                       "types": DEFAULT_DOCS}, ["--seeds", "0..3"]),
    "game": ("game", {"N": 30, "capacity": 14, "p": 0.2, "T": 120,
                      "types": DEFAULT_DOCS}, ["--runs", "2"]),
    # vector states: the noise block is (steps, N, n)
    "game-two-state": ("game", {"N": 20, "capacity": 9, "p": 0.2, "T": 80,
                                "types": TWO_STATE_DOCS}, ["--runs", "2"]),
    # the equilibrium alone: 33, 47 and 26 Picard iterations, on one window each
    "mfe": ("mfe", {"N": 30, "capacity": 14, "p": 0.2, "T": 120,
                    "types": DEFAULT_DOCS}, []),
    "mfe-two-state": ("mfe", {"N": 20, "capacity": 9, "p": 0.2, "T": 80,
                              "types": TWO_STATE_DOCS}, []),
    "mfe-pole-1.3": ("mfe", {"N": 30, "capacity": 14, "p": 0.2, "T": 120,
                             "types": POLE_DOCS}, []),
    "bounds": ("bounds", {"N": 100, "capacity": 25, "p": 0.2, "T": 300,
                          "types": DEFAULT_DOCS}, []),
    "bounds-two-state": ("bounds", {"N": 20, "capacity": 9, "p": 0.2, "T": 80,
                                    "types": TWO_STATE_DOCS}, []),
    # a perfect channel: no tail threshold, so the report has no `tail` key
    "bounds-p0": ("bounds", {"N": 100, "capacity": 25, "p": 0.0, "T": 300,
                             "types": DEFAULT_DOCS}, []),
}


def _outputs(name, tmp_path) -> dict:
    """The data files of one run of the case, by file name."""
    command, doc, extra = CASES[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)] + extra) == 0
    return {f: (out / f).read_bytes() for f in OUTPUTS[command]}


def _flat(value):
    if isinstance(value, list):
        for item in value:
            yield from _flat(item)
    else:
        yield value


def _values(file, data: bytes) -> dict:
    """An output's values by key, each a flat list: a JSON document's leaves
    under their dotted key paths (arrays flattened), a CSV's cells by column."""
    if file.endswith(".json"):
        values = {}

        def walk(value, key):
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(v, f"{key}.{k}" if key else k)
            else:
                values[key] = list(_flat(value))
        walk(json.loads(data), "")
        return values
    header, *rows = csv.reader(io.StringIO(data.decode()))
    return {column: [row[i] for row in rows] for i, column in enumerate(header)}


def _size(old, new) -> tuple | None:
    """(absolute, relative) change between two numbers, None for other values."""
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return None
    change = abs(b - a)
    return change, change / abs(a) if a else (0.0 if change == 0 else math.inf)


def moves(file, old: bytes, new: bytes) -> dict:
    """What moved between two versions of an output, per key: "added",
    "removed", "<m> -> <n> values" when the count changed, else (changed
    values, values, largest absolute change, largest relative change). A
    value changed when its text did; a change's size is read only where
    both texts are numbers."""
    before, after = _values(file, old), _values(file, new)
    out = {}
    for key in sorted(before.keys() | after.keys()):
        if key not in after:
            out[key] = "removed"
        elif key not in before:
            out[key] = "added"
        elif len(before[key]) != len(after[key]):
            out[key] = f"{len(before[key])} -> {len(after[key])} values"
        else:
            changed = [(a, b) for a, b in zip(before[key], after[key]) if repr(a) != repr(b)]
            sizes = [s for s in (_size(a, b) for a, b in changed) if s is not None]
            out[key] = (len(changed), len(before[key]), max((s[0] for s in sizes), default=0.0),
                        max((s[1] for s in sizes), default=0.0))
    return out


def report(path, old: bytes, new: bytes) -> str:
    """The moves of one output as text, one line per key."""
    found = moves(Path(path).name, old, new)
    lines = [str(path)]
    for key, move in found.items():
        if isinstance(move, str):
            lines.append(f"  {key}: {move}")
            continue
        changed, total, largest_abs, largest_rel = move
        line = f"  {key}: {changed} of {total} values changed"
        if changed:
            line += f", largest change {largest_abs:.3g} absolute, {largest_rel:.3g} relative"
        lines.append(line)
    if old != new and all(not isinstance(m, str) and m[0] == 0 for m in found.values()):
        lines.append("  every value is equal: only the layout moved")
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_pinned(name, tmp_path):
    moved = []
    for file, data in _outputs(name, tmp_path).items():
        stored = (GOLDEN_DIR / name / file).read_bytes()
        if data != stored:
            moved.append(report(f"{name}/{file}", stored, data))
    assert not moved, "\n".join(moved)


def test_report_names_a_one_ulp_change():
    stored = (GOLDEN_DIR / "mfe" / "mfe_report.json").read_bytes()
    doc = json.loads(stored)
    assert (_dumps(doc, indent=2) + "\n").encode() == stored  # JSON gives back the bytes
    x = doc["mu_window"][7][0]
    doc["mu_window"][7][0] = math.nextafter(x, math.inf)
    moved = (_dumps(doc, indent=2) + "\n").encode()
    got = moves("mfe_report.json", stored, moved)
    ulp, total = math.ulp(x), len(doc["mu_window"])
    assert got["mu_window"] == (1, total, ulp, ulp / abs(x))
    assert all(move[0] == 0 for key, move in got.items() if key != "mu_window")
    assert (f"  mu_window: 1 of {total} values changed, largest change {ulp:.3g} absolute, "
            f"{ulp / abs(x):.3g} relative") in report("mfe_report.json", stored, moved)


def test_report_names_keys_columns_and_layout():
    old = b'{"a": 1, "b": {"c": [1.0, 2.0]}}'
    new = b'{"b": {"c": [1.0, 2.5], "d": null}}'
    assert moves("x.json", old, new) == {"a": "removed", "b.c": (1, 2, 0.5, 0.25),
                                         "b.d": "added"}
    assert moves("x.csv", b"N,J\n5,1.0\n10,2.0\n", b"N,J\n5,1.0\n10,-2.0\n") == {
        "N": (0, 2, 0.0, 0.0), "J": (1, 2, 4.0, 2.0)}
    assert moves("x.csv", b"N\n5\n", b"N\n5\n6\n") == {"N": "1 -> 2 values"}
    assert report("x.json", b'{"a": 1}', b'{"a":1}').endswith("only the layout moved")


def rewrite() -> None:
    """Run every case, write each output that moved over its stored file and
    print what moved in it."""
    moved = 0
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
            outputs = _outputs(name, Path(tmp))
        for file, data in outputs.items():
            path = GOLDEN_DIR / name / file
            old = path.read_bytes() if path.exists() else None
            if data == old:
                continue
            print(f"{name}/{file}: new file" if old is None
                  else report(f"{name}/{file}", old, data))
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
            moved += 1
    print(f"{moved} stored output(s) rewritten")


# the manifest's config_hash: SHA-256 of the scenario document a run resolved,
# for a preset sweep point, a preset equilibrium and a vector-state file
CONFIG_HASHES = {
    "schedule-preset-N10": (["schedule", "--N", "10", "--runs", "1"], None,
                            "67903f7ec166e307ffd2eab26e6ec57e1993e3c096adef505ba5aafb42785be3"),
    "mfe-preset": (["mfe"], None,
                   "574e0a9325b96dc135ecf69c2cd0f34131a2c223b13f1b6e3633dfa8d035cd03"),
    "bounds-two-state": (["bounds"], CASES["bounds-two-state"][1],
                         "12d2988f46a829c182ba446dc8c854f452951be2e22bbd4bec084977abc72d57"),
}


@pytest.mark.parametrize("name", sorted(CONFIG_HASHES))
def test_config_hash_pinned(name, tmp_path):
    argv, doc, want = CONFIG_HASHES[name]
    if doc is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / f"{argv[0]}_manifest.json").read_text())
    assert manifest["config_hash"] == want


if __name__ == "__main__":
    rewrite()
