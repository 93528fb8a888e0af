"""Write every data product of the two shipped configs, or compare two such sets.

    python tests/products.py OUT               # write the products and OUT/manifest.json
    python tests/products.py OUT --small       # the same at small scan sizes
    python tests/products.py --compare A B     # which products differ, and by how much

For ``configs/ideal.json`` and ``configs/pump_jitter.json`` it writes each CLI
subcommand's products, in both modes where it has two; ``run_pump_sweep`` in
both modes, as CSV and JSON; and ``timetags --pairs 200000`` then
``correlate`` of that dump.  Product ``<config>/<step>/<file>`` lies under
OUT; the ``*.meta.json`` files, which hold wall times, are removed.
``manifest.json`` maps each product to its sha256.

``--compare A B`` reads both manifests and lists the products that are
byte-identical.  For each one that is not, it gives the largest |delta| per
CSV column and per JSON key (list entries and nested keys joined by dots), or
the first differing line of any other file.  It exits 0 only when every
product is identical.

``--small`` shrinks every scan to ``SMALL_SCAN`` and the dump to
``SMALL_PAIRS`` pairs; the pinned products test in tier-1 runs it.  Imports
only franson, NumPy and the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from franson import cli
from franson.config import load_config
from franson.experiment import run_pump_sweep

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = ("ideal.json", "pump_jitter.json")
DUMP_PAIRS = 200_000
# the scan section and dump size of --small
SMALL_SCAN = {"n_points": 8, "pairs_per_point": 1_500}
SMALL_PAIRS = 4_000
# (subcommand, modes); an empty tuple runs the subcommand's only mode
SCANS = (
    ("fringe-scan", ("analytic", "montecarlo")),
    ("local-scan", ()),
    ("crossover", ()),
    ("tau-decay", ("analytic", "montecarlo")),
    ("chsh", ("analytic", "montecarlo")),
)


def _franson(argv) -> None:
    """One CLI call, its stderr (the config's warnings) kept off the console."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"franson {' '.join(map(str, argv))} exited {code}: {err.getvalue()}")


def write_products(out, small: bool = False) -> dict[str, str]:
    """Write every product under ``out`` and ``out/manifest.json``; returns the manifest."""
    out = Path(out)
    for name in SHIPPED:
        config = CONFIGS / name
        here = out / Path(name).stem
        if small:
            raw = json.loads(config.read_text(encoding="utf-8"))
            raw["scan"].update(SMALL_SCAN)
            config = here / "config.json"
            config.parent.mkdir(parents=True, exist_ok=True)
            config.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
        common = ["--config", config]
        for command, modes in SCANS:
            for mode in modes or (None,):
                step = command if mode is None else f"{command}-{mode}"
                extra = [] if mode is None else ["--mode", mode]
                _franson([command, *common, *extra, "--out", here / step])
        pairs = SMALL_PAIRS if small else DUMP_PAIRS
        dump = here / "timetags" / "timetags.dat"
        _franson(["timetags", *common, "--pairs", pairs, "--out", dump.parent])
        _franson(["correlate", *common, "--input", dump, "--out", here / "correlate"])
        cfg = load_config(config)
        for mode in ("analytic", "montecarlo"):
            result = run_pump_sweep(cfg, mode=mode)
            step = here / f"pump-sweep-{mode}"
            step.mkdir(parents=True, exist_ok=True)
            (step / "pump-sweep.csv").write_text(result.to_csv_text(), encoding="utf-8")
            cli._write_json(step / "pump-sweep.json", result.to_summary_dict())
    for meta in out.rglob("*.meta.json"):
        meta.unlink()
    manifest = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name not in ("manifest.json", "config.json")
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest


def _round(value, digits: int):
    """A JSON value with every float printed to ``digits`` significant digits."""
    if isinstance(value, float):
        return format(value, f".{digits}g")
    if isinstance(value, dict):
        return {key: _round(v, digits) for key, v in value.items()}
    if isinstance(value, list):
        return [_round(v, digits) for v in value]
    return value


def _csv_cell(cell: str, digits: int) -> str:
    try:
        int(cell)
        return cell
    except ValueError:
        return format(float(cell), f".{digits}g")


def rounded_digest(path, digits: int = 12) -> str:
    """sha256 (first 16 hex digits) of a product with every float printed to
    ``digits`` significant digits: JSON values by value, CSV cells past the
    ``#`` header, and any other file as its bytes."""
    path = Path(path)
    text = path.read_bytes()
    if path.suffix == ".json":
        text = json.dumps(_round(json.loads(text), digits), sort_keys=True).encode()
    elif path.suffix == ".csv":
        lines = text.decode("ascii").splitlines()
        head = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
        rows = [",".join(_csv_cell(c, digits) for c in line.split(",")) for line in lines[head:]]
        text = "\n".join(lines[:head] + rows).encode()
    return hashlib.sha256(text).hexdigest()[:16]


def _json_leaves(value, key: str = "", out: dict | None = None) -> dict[str, list]:
    """A JSON value's leaves by dotted key; list entries share their list's key."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for k, v in value.items():
            _json_leaves(v, f"{key}.{k}" if key else str(k), out)
    elif isinstance(value, list):
        for v in value:
            _json_leaves(v, key, out)
    else:
        out.setdefault(key, []).append(value)
    return out


def _csv_columns(path: Path) -> dict[str, list[float]]:
    lines = [line for line in path.read_text(encoding="ascii").splitlines() if not line.startswith("#")]
    names = lines[0].split(",")
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(names)}


def _largest_deltas(a: dict[str, list], b: dict[str, list]) -> list[str]:
    """Per key, the largest |delta| of its numbers, or why they do not compare."""
    lines = []
    for key in sorted(a.keys() | b.keys()):
        va, vb = a.get(key), b.get(key)
        if va is None or vb is None:
            lines.append(f"{key}: only in {'B' if va is None else 'A'}")
        elif len(va) != len(vb):
            lines.append(f"{key}: {len(va)} values against {len(vb)}")
        elif va != vb:
            try:
                delta = np.abs(np.array(va, dtype=np.float64) - np.array(vb, dtype=np.float64))
                lines.append(f"{key}: largest |delta| {np.nanmax(delta):.6g}")
            except (TypeError, ValueError):
                lines.append(f"{key}: {va!r} -> {vb!r}")
    return lines


def _json_columns(path: Path) -> dict[str, list]:
    return _json_leaves(json.loads(path.read_text(encoding="utf-8")))


def _explain(path_a: Path, path_b: Path) -> list[str]:
    """How two versions of a product differ."""
    read = {".json": _json_columns, ".csv": _csv_columns}.get(path_a.suffix)
    if read is not None:
        return _largest_deltas(read(path_a), read(path_b))
    lines_a = path_a.read_bytes().splitlines()
    lines_b = path_b.read_bytes().splitlines()
    for i, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        if la != lb:
            return [f"first differing line {i}: {la!r} -> {lb!r}"]
    return [f"{len(lines_a)} lines against {len(lines_b)}"]


def compare(a, b) -> bool:
    """Print the identical and the differing products of two output folders;
    returns whether every product is identical."""
    a, b = Path(a), Path(b)
    man_a, man_b = (json.loads((d / "manifest.json").read_text(encoding="utf-8")) for d in (a, b))
    same = sorted(p for p in man_a.keys() & man_b.keys() if man_a[p] == man_b[p])
    differ = sorted(p for p in man_a.keys() & man_b.keys() if man_a[p] != man_b[p])
    print(f"identical: {len(same)} of {len(man_a.keys() | man_b.keys())} products")
    for p in same:
        print(f"  {p}")
    if differ:
        print(f"differ: {len(differ)}")
    for p in differ:
        print(f"  {p}")
        for line in _explain(a / p, b / p):
            print(f"    {line}")
    for side, only in (("A", man_a.keys() - man_b.keys()), ("B", man_b.keys() - man_a.keys())):
        for p in sorted(only):
            print(f"only in {side}: {p}")
    return len(same) == len(man_a.keys() | man_b.keys())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("out", nargs="?", type=Path, help="folder to write the products into")
    parser.add_argument("--small", action="store_true", help="small scans and a small dump")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"), help="two product folders")
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    if args.out is None:
        parser.error("give OUT, or --compare A B")
    manifest = write_products(args.out, small=args.small)
    print(f"{len(manifest)} products written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
