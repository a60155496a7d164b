"""A seeded fuzz of every file the CLI reads: random byte and line edits of
the scenario spec, the config, the five inputs, a taxonomy override (a copy
of the bundled one) and the artifacts the staged runs read back, on a
6-region city. Whatever the edit, a command exits 0, or
refuses with one `error:` or `config error:` line and exit 1 or 2; it never
ends in any other exception. And `validate` foretells every refusal of
`run`: where an edit of the config or an input makes `run` refuse,
`validate` refuses too or lists a diagnostic.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from recovery_track import cli

EDITS = 150
SEED = 14

# bytes an edit puts in: CSV and JSON syntax, number characters, and two that are rarely valid
BYTES = b'\n\r,"-.:0123456789e []{} \x00\xff'

RUN = ["run", "--config", "{dir}/city/config.json", "--out", "{dir}/out", "--permutations", "9"]
VALIDATE = ["validate", "--config", "{dir}/city/config.json"]
INPUTS = ("trips.csv", "transactions.csv", "overlaps.csv", "adjacency.csv", "attributes.csv", "taxonomy.csv")

# (file edited, command that reads it)
TARGETS = [
    ("spec.json", ["synth", "--spec", "{dir}/spec.json", "--out", "{dir}/synth"]),
    *((f"city/{name}", command) for name in ("config.json", *INPUTS) for command in (RUN, VALIDATE)),
    ("out/work/baselines.csv", [*RUN, "--only", "milestones"]),
    ("out/work/changes.csv", [*RUN, "--only", "milestones"]),
    ("out/milestones.csv", [*RUN, "--only", "metric"]),
    ("out/milestones.csv", [*RUN, "--only", "stats"]),
    ("out/metric.csv", [*RUN, "--only", "stats"]),
]


def _edit(rng, data):
    """`data` with one random edit: a byte replaced, put in or taken out, or
    a line dropped or repeated, or the file cut off within a line."""
    kind = rng.choice(("replace", "insert", "delete", "drop", "repeat", "cut"))
    if kind in ("replace", "insert", "delete"):
        at = rng.randrange(len(data) + (kind == "insert"))
        byte = b"" if kind == "delete" else bytes([rng.choice(BYTES)])
        return data[:at] + byte + data[at + (kind != "insert"):]
    lines = data.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    if kind == "drop":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    else:
        lines[i:] = [lines[i][: rng.randrange(len(lines[i]))]]
    return b"".join(lines)


def _write_city(directory):
    """The 6-region city in `directory`/city, reading a copy of the bundled taxonomy."""
    (directory / "spec.json").write_text(json.dumps({"n_regions": 6, "seed": 1}))
    assert cli.main(["synth", "--spec", str(directory / "spec.json"), "--out", str(directory / "city")]) == 0
    bundled = Path(cli.__file__).with_name("data") / "taxonomy.csv"
    (directory / "city/taxonomy.csv").write_bytes(bundled.read_bytes())
    config = json.loads((directory / "city/config.json").read_text())
    config["inputs"]["taxonomy"] = "taxonomy.csv"
    (directory / "city/config.json").write_text(json.dumps(config, indent=2))


def test_every_edit_ends_in_exit_0_or_one_refusal(tmp_path, capsys):
    _write_city(tmp_path)
    assert cli.main([arg.format(dir=tmp_path) for arg in RUN]) == 0
    pristine = {name: (tmp_path / name).read_bytes() for name in {name for name, _ in TARGETS}}
    rng = random.Random(SEED)
    codes = []
    for case in range(EDITS):
        for name, data in pristine.items():
            (tmp_path / name).write_bytes(data)
        name, command = rng.choice(TARGETS)
        (tmp_path / name).write_bytes(_edit(rng, pristine[name]))
        argv = [arg.format(dir=tmp_path) for arg in command]
        capsys.readouterr()
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - any exception here is the failure this test looks for
            pytest.fail(f"edit {case} of {name}: {' '.join(argv[:1] + argv[4:])} raised {exc!r}")
        err = capsys.readouterr().err
        if code:
            assert (code, err.count("\n")) in ((1, 1), (2, 1)), f"edit {case} of {name}: exit {code}, {err!r}"
            assert err.startswith("error: " if code == 1 else "config error: "), f"edit {case} of {name}: {err!r}"
        codes.append(code)
    # the edits reach every outcome: a pass, and refusals with both exit codes
    assert {0, 1, 2} <= set(codes)


def test_validate_foretells_every_refusal_of_run(tmp_path, capsys):
    # both commands read the config's output directory
    _write_city(tmp_path)
    run, validate = ([arg.format(dir=tmp_path) for arg in command] for command in (RUN[:3], VALIDATE))
    names = [f"city/{name}" for name in ("config.json", *INPUTS)]
    pristine = {name: (tmp_path / name).read_bytes() for name in names}
    rng = random.Random(SEED)
    refused = 0
    for case in range(EDITS):
        for name, data in pristine.items():
            (tmp_path / name).write_bytes(data)
        name = rng.choice(names)
        (tmp_path / name).write_bytes(_edit(rng, pristine[name]))
        capsys.readouterr()
        if cli.main(run) == 0:
            continue
        refused += 1
        err = capsys.readouterr().err
        code = cli.main(validate)
        out = capsys.readouterr().out
        assert code or json.loads(out), f"edit {case} of {name}: run refused with {err!r}, validate listed nothing"
    # the edits reach both outcomes of run
    assert 0 < refused < EDITS
