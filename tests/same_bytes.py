"""The report bundle has the same bytes on one CPU and on all, at real sizes.

Run as `python tests/same_bytes.py`; it takes no options. The unit tests
reach the two-process paths only with lowered sizes; these cities cross
processes.SPLIT_BYTES and processes.SPLIT_CELLS. Every command runs twice,
pinned to one CPU, where nothing forks, and on all CPUs, and the two must
agree:

- every file of `synth`, `run` and `run --only milestones` on a 1000-region
  city and a 200-region, 365-day city, and `--only milestones` equal to `run`;
  the seven `synth` files must also keep the sha256 recorded in SYNTH_DIGESTS,
  and the seven artifacts of `run` those in RUN_DIGESTS;
- the refusal of the 200-region city's work/changes.csv damaged at three
  quarters, in the child's half: a line dropped, then a byte that is not UTF-8;
- every artifact of the 1000-region city with one trip count of trips.csv,
  at three quarters of its bytes, zero-padded to 17 digits: in the reader's
  second half, that block's counts are read by int(), not from the bytes,
  and the artifacts equal the unpadded city's;
- the coverage of the 1000-region city with the four regions of one Zip
  taken out of overlaps.csv and a trip row of an unknown service type added
  to each half of trips.csv, unknown types skipped: `run` and `validate`
  agree, and coverage_report.json counts the unmatched regions, the
  unmatched Zip and the unknown types as the CSV text does;
- the refusal, and the `validate` diagnostic, of the 1000-region city's
  trips.csv damaged at three quarters of its bytes, in the reader's second
  half: a byte that is not UTF-8, then a quote opened at the start of the
  next line and never closed;
- every artifact of the 2,500-region stats-perm benchmark city after
  `run --only stats --permutations 999`; its stats.json and lorenz.csv must
  also keep the sha256 recorded in STATS_PERM_DIGESTS, and its seven `synth`
  files those in SYNTH_DIGESTS.

It exits nonzero, naming the comparison, at the first that fails, and
removes its temporary directory either way.
"""

import csv
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
from recovery_track import processes  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(SRC))
CPUS = ("one", "all")
PERMUTATIONS = 999

# sha256 of every file `synth` writes for the two cities of cities() and the
# city of stats_perm(): the unit tests pin the bytes of cities of 3 to 200
# regions only, and these cities cross processes.SPLIT_CELLS, where the truth
# comes from a child; the 2,500 entities of stats_perm()'s are emitted over
# many blocks
SYNTH_DIGESTS = {
    '{"n_regions": 1000}': {
        "adjacency.csv": "65d868d201b289740295e2340980a6e8f168e2b257836bda8da03b453146f52e",
        "attributes.csv": "a7ecae413396d9ed75d4b68eeb61dd9c8cc7ace5eb450043571689e6394cd2ce",
        "config.json": "6e4beaca7d0f2042a24c5057342fea3dcdde178689f725070b6dbdbd062f6782",
        "ground_truth.csv": "fa4b055855d7535ea9fb144b81b9ae0406632479f1d9fbbd00f9774f11d6ade2",
        "overlaps.csv": "2134eb6f2e45c4954eda972932a917df5441f3a0d636447835e36a591fc67afd",
        "transactions.csv": "553aa3ff11a163f406835f0f86df17b5d1190755f8c142c3e4b17f406157a21d",
        "trips.csv": "d955b29bf06146f8ffe729df8a68e4648e6531f9f1e2acd3a4efaa6d3bedd610",
    },
    '{"n_regions": 200, "horizon_days": 365, "censored_fraction": 0.2}': {
        "adjacency.csv": "332c6e2be38254db9d6ed8d2f51885dfddc5bb94756e9e106d5950b26ed434e2",
        "attributes.csv": "6068cf95ec25f8c3a7122b96747c62ae03e2c062c743d9112c14b54b6e8f8de3",
        "config.json": "0901b6ae1f221604789efd7219e668970895d665f4aa15148200753093d7de7c",
        "ground_truth.csv": "7181a32210a1f2d70a762cac4ecb1a94004777b4c560b4a102bf02d5d8946d8b",
        "overlaps.csv": "f5d67c8ebbf3575cb2e04f841ed257c3838ddb72074f51e24b24afdc84691694",
        "transactions.csv": "163986e49ee85b8842da639f9d6da97dd14dc124cfb10a8434f85f4f2b486aed",
        "trips.csv": "2a85f3b7c4af76ec5fc4fb9711395dd612e8a82cf611fa9381b7b3de53c18978",
    },
    '{"n_regions": 2500, "window_start": "2017-08-17", "baseline_days": 7, "horizon_days": 21, "ramp_range": [3, 15]}': {
        "adjacency.csv": "42a8cc1eb133fa63716067cc43a946b66412d780870e5be5f071c1f5e3f1faca",
        "attributes.csv": "d769d753c45a67c1fa6456e7b646f36275bea7806175aa358ffac267ff820518",
        "config.json": "dc8754ad9e3fe4537472c5e383b1ca71ad243f270e40579c947771f87ec0dc46",
        "ground_truth.csv": "c06e4c0eea64f1a85eee7ec24f4622294e3c5020c1d225de0e25a58164173c94",
        "overlaps.csv": "514fc9aed48ad3ec837da664bdf9ffc2e693f4943b3f24bd2cb44d6db1025a74",
        "transactions.csv": "cacbbaeac490d87c91f9c7aae69461ea09287e30c782fd262aa73dcb6938fbec",
        "trips.csv": "4a434b6fe28d9b0dc1691876f79c8a98fdb975b41ea121566e1e0bb3f7d4e6d2",
    },
}

# sha256 of the seven artifacts `run` writes for the two cities of cities(),
# on one CPU and on all: the golden bundle pins only the five report
# artifacts of a 200-region city, so these guard the work files, and every
# artifact at real size, through any rewrite of the series stage
RUN_DIGESTS = {
    '{"n_regions": 1000}': {
        "coverage_report.json": "8f50a4a481abbf883387af0fc7aa9f8b72d79a44fe997c50607e29a7da3303aa",
        "lorenz.csv": "5521249381b2858664244d69f880337b8d23ffcff9ca53d6fb0d379c110c953f",
        "metric.csv": "accea86fe56184e2ed14c367c8103432beac8667333f62ae5139459fef5a0c4c",
        "milestones.csv": "7fb8cf6339feeaff55681ebf649a500ef8573401015a2be27ca4f5d4b2ebdc74",
        "stats.json": "1f95cc0692c641a0b15d22e862f175ee06b46114b62fe8a75a89faf5ef86f4c5",
        "work/baselines.csv": "b685c97ee18a773d49be041ca858c518d63710c422e6b6e0878fbfa5cc2823c4",
        "work/changes.csv": "dd49dc811cf824d4c095e6d0f2b878c16cd836ea5cba92bd273aa185c7096bba",
    },
    '{"n_regions": 200, "horizon_days": 365, "censored_fraction": 0.2}': {
        "coverage_report.json": "7379712df589394553751e25419e0722736b1f35244086af24f3369a4241f069",
        "lorenz.csv": "2b23b704fdf3e7ee587715268f61a89ee71719b177743b9b7210495b48d1119a",
        "metric.csv": "0fbd3936651d75b336f245f0abb8959a420af16810f9ff6e69a6ab2b5f05b790",
        "milestones.csv": "3719a69e1f5d293052bd7aa452b7d3996b33caf64c84b109c1456b97249cf53f",
        "stats.json": "c731bf9d53e3aeab8751adae5e80f7c2a99b794318fef62aeabc127f348569b3",
        "work/baselines.csv": "83e9fea23943774366eccd2459ce5d594e7a8d98b63d43d2dae155abf546fffe",
        "work/changes.csv": "f7613a28960fca9c0dae6af4c602bebf09ee1f65605b85070ae9dfa20ac834e5",
    },
}

# sha256 of the files the stats stage writes for the stats-perm city of
# stats_perm() after `run --only stats --permutations 999`: the unit tests pin
# seeded permutation p-values on cities of 30 and 200 regions only
STATS_PERM_DIGESTS = {
    "lorenz.csv": "e06a93c4984890f6325d98528e3bafeb91eda519c84ed749d124238260af1720",
    "stats.json": "a92bbafb976cb89f7e9d926969e41453ae4ee9c97bd005b290ec0901390df77b",
}


def check(holds, message):
    if not holds:
        sys.exit(f"same_bytes: {message}")


def python(cpus, *args, code=0):
    """(stdout, stderr) of `python *args`, pinned to one CPU where `cpus` is
    "one"; it must exit with `code`."""
    cpu = min(os.sched_getaffinity(0))
    done = subprocess.run(
        [sys.executable, *map(str, args)],
        env=ENV,
        capture_output=True,
        text=True,
        preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if cpus == "one" else None,
    )
    check(done.returncode == code,
          f"`{' '.join(map(str, args))}` on {cpus} CPU(s) exited {done.returncode}, not {code}:\n{done.stderr}")
    return done.stdout, done.stderr


def cli(cpus, *args, code=0):
    """(stdout, stderr) of `recovery_track.cli *args`; see python()."""
    return python(cpus, "-m", "recovery_track.cli", *args, code=code)


def digests(directory):
    return {str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def same(what, one, other):
    differ = sorted(name for name in one.keys() | other.keys() if one.get(name) != other.get(name))
    check(not differ, f"{what}: {', '.join(differ)} differ")


def big(path):
    size = path.stat().st_size
    check(size >= processes.SPLIT_BYTES,
          f"{path.name} is {size} bytes, below processes.SPLIT_BYTES ({processes.SPLIT_BYTES}): it is read whole")


def refused(what, args, expected):
    """The one error line of `args` on one CPU and on all, which must exit 1
    with the same stderr: one line, starting with `expected`."""
    on_one, on_all = (cli(cpus, *args, code=1)[1] for cpus in CPUS)
    check(on_all.count("\n") == 1 and on_all.startswith(expected),
          f"{what}: not one line starting {expected!r}:\n{on_all}")
    check(on_one == on_all, f"{what}: the error on one CPU and on all differ:\n{on_one}{on_all}")
    print(f"{what}: {on_all}", end="")
    return on_all.removeprefix("error: ").rstrip("\n")


def cities(tmp):
    """Both cities through synth, run and --only milestones, on one CPU and on
    all; synth's files as SYNTH_DIGESTS records them, run's as RUN_DIGESTS does."""
    for n, (spec, crosses) in enumerate([
        ('{"n_regions": 1000}', "city/trips.csv"),
        ('{"n_regions": 200, "horizon_days": 365, "censored_fraction": 0.2}', "out/work/changes.csv"),
    ], start=1):
        (tmp / f"spec{n}.json").write_text(spec + "\n")
        sums = {}
        for cpus in CPUS:
            run = tmp / str(n) / cpus
            cli(cpus, "synth", "--spec", tmp / f"spec{n}.json", "--out", run / "city")
            sums[cpus, "synth"] = digests(run / "city")
            cli(cpus, "run", "--config", run / "city/config.json", "--out", run / "out")
            sums[cpus, "full"] = digests(run / "out")
            cli(cpus, "run", "--config", run / "city/config.json", "--out", run / "out", "--only", "milestones")
            sums[cpus, "milestones"] = digests(run / "out")
        big(tmp / str(n) / "all" / crosses)
        for cpus in CPUS:
            same(f"{spec}: synth on {cpus} CPU(s) and SYNTH_DIGESTS", sums[cpus, "synth"], SYNTH_DIGESTS[spec])
            same(f"{spec}: run on {cpus} CPU(s) and RUN_DIGESTS", sums[cpus, "full"], RUN_DIGESTS[spec])
        for kind in ("synth", "full", "milestones"):
            same(f"{spec}: {kind} on one CPU and on all", sums["one", kind], sums["all", kind])
        same(f"{spec}: run and run --only milestones", sums["all", "full"], sums["all", "milestones"])
        print(f"{spec}: {len(sums['all', 'synth'])} synth files and {len(sums['all', 'full'])} artifacts agree")


def damaged_changes(tmp):
    """The 200-region city's work/changes.csv, damaged at three quarters, in
    the child's half: refused naming the damaged line."""
    whole = (tmp / "one/out/work/changes.csv").read_bytes()
    args = ("run", "--config", tmp / "all/city/config.json", "--out", tmp / "all/out", "--only", "milestones")
    lines = whole.splitlines(keepends=True)
    dropped = whole.count(b"\n") * 3 // 4  # 1-based: the line that follows it is refused in its place
    del lines[dropped - 1]
    (tmp / "all/out/work/changes.csv").write_bytes(b"".join(lines))
    refused("a line dropped from work/changes.csv", args, f"error: work/changes.csv line {dropped}: ")
    at = len(whole) * 3 // 4
    (tmp / "all/out/work/changes.csv").write_bytes(whole[:at] + b"\xff" + whole[at:])
    line = whole.count(b"\n", 0, at) + 1  # the line that holds the byte
    refused("a byte of work/changes.csv that is not UTF-8", args,
            f"error: work/changes.csv line {line}: not UTF-8 text\n")


def long_count(tmp):
    """The 1000-region city with the trip count at three quarters of the
    bytes of trips.csv padded to 17 digits, which moves no value: the same
    artifacts on one CPU and on all, and as the city's own."""
    city = tmp / "long/city"
    shutil.copytree(tmp / "all/city", city)
    whole = (city / "trips.csv").read_bytes()
    end = whole.index(b"\n", len(whole) * 3 // 4)  # the end of the line that holds byte 3/4
    start = whole.rindex(b",", 0, end) + 1
    (city / "trips.csv").write_bytes(whole[:start] + whole[start:end].zfill(17) + whole[end:])
    big(city / "trips.csv")
    sums = {}
    for cpus in CPUS:
        cli(cpus, "run", "--config", city / "config.json", "--out", tmp / "long" / cpus)
        sums[cpus] = digests(tmp / "long" / cpus)
    same("a 17-digit trip count: run on one CPU and on all", sums["one"], sums["all"])
    same("a 17-digit trip count: run and the unpadded city's run", sums["all"], digests(tmp / "all/out"))
    print(f"a 17-digit trip count: {len(sums['all'])} artifacts agree with the unpadded city's")


def resolved_zips(overlaps):
    """{region: the Zip of its largest overlap_area, ties to the smaller Zip} of overlaps.csv rows."""
    best = {}
    for region, zip_code, area in overlaps:
        candidate = (-float(area), zip_code)
        if region not in best or candidate < best[region]:
            best[region] = candidate
    return {region: zip_code for region, (_, zip_code) in best.items()}


def coverage_of_text(city, zip_of):
    """The unmatched and unknown-type counts of coverage_report.json, taken
    from the CSV text of `city`, every row of which lies in its window."""
    with open(SRC / "recovery_track/data/taxonomy.csv", newline="") as handle:
        codes = {row[0] for row in list(csv.reader(handle))[1:]}
    unmatched = {"trips.csv": {}, "transactions.csv": {}}
    unknown = {}
    for name, matched in (("trips.csv", zip_of.keys()), ("transactions.csv", set(zip_of.values()))):
        with open(city / name, newline="") as handle:
            for _, entity, code, _ in itertools.islice(csv.reader(handle), 1, None):
                if entity not in matched:
                    unmatched[name][entity] = unmatched[name].get(entity, 0) + 1
                elif code not in codes:
                    unknown[code] = unknown.get(code, 0) + 1
    return {
        "unmatched_regions": dict(sorted(unmatched["trips.csv"].items())),
        "unmatched_zips": dict(sorted(unmatched["transactions.csv"].items())),
        "unknown_service_types": dict(sorted(unknown.items())),
    }


def coverage(tmp):
    """The 1000-region city without the overlaps.csv rows of the four regions
    of its middle Zip, with a trip row of service type `florist` before the
    line at a quarter and at three quarters of the bytes of trips.csv, and
    with unknown types skipped: `run` and `validate` give the same on one CPU
    and on all, and the report's counts are those of the CSV text."""
    city = tmp / "coverage/city"
    shutil.copytree(tmp / "all/city", city)
    with open(city / "overlaps.csv", newline="") as handle:
        header, *overlaps = list(csv.reader(handle))
    zip_of = resolved_zips(overlaps)
    middle = sorted(set(zip_of.values()))[len(set(zip_of.values())) // 2]
    gone = {region for region, zip_code in zip_of.items() if zip_code == middle}
    check(len(gone) == 4, f"Zip {middle} is the Zip of {len(gone)} regions, not 4")
    kept = [row for row in overlaps if row[0] not in gone]
    (city / "overlaps.csv").write_text("".join(",".join(row) + "\n" for row in [header, *kept]))
    whole = (city / "trips.csv").read_bytes()
    for at in (len(whole) * 3 // 4, len(whole) // 4):  # the later first, so the earlier offset holds
        start = whole.index(b"\n", at) + 1
        day, region, _, count = whole[start:whole.index(b"\n", start)].split(b",")
        whole = whole[:start] + b",".join([day, region, b"florist", count]) + b"\n" + whole[start:]
    (city / "trips.csv").write_bytes(whole)
    big(city / "trips.csv")
    config = json.loads((city / "config.json").read_text())
    config["taxonomy_options"] = {"unknown_service_policy": "skip-with-warning"}
    (city / "config.json").write_text(json.dumps(config))

    sums, found = {}, {}
    for cpus in CPUS:
        cli(cpus, "run", "--config", city / "config.json", "--out", tmp / "coverage" / cpus)
        sums[cpus] = digests(tmp / "coverage" / cpus)
        found[cpus] = cli(cpus, "validate", "--config", city / "config.json")[0]
    same("coverage: run on one CPU and on all", sums["one"], sums["all"])
    check(found["one"] == found["all"], f"coverage: validate on one CPU and on all differ:\n{found['one']}{found['all']}")
    report = json.loads((tmp / "coverage/all/coverage_report.json").read_text())
    got = {
        "unmatched_regions": report["trips"]["unmatched_regions"],
        "unmatched_zips": report["transactions"]["unmatched_zips"],
        "unknown_service_types": report["unknown_service_types"],
    }
    expected = coverage_of_text(city, resolved_zips(kept))
    check(list(expected["unmatched_regions"]) == sorted(gone) and list(expected["unmatched_zips"]) == [middle]
          and expected["unknown_service_types"] == {"florist": 2},
          f"coverage: the CSV text shows {expected}, not the regions {sorted(gone)} and Zip {middle} "
          "unmatched and two florist rows")
    for key in expected:
        check(list(got[key].items()) == list(expected[key].items()),
              f"coverage: {key} is {got[key]} in the report and {expected[key]} in the CSV text")
    diagnostics = json.loads(found["all"])
    for kind, name, key in (("unmatched-region", "region", "unmatched_regions"),
                            ("unmatched-zip", "zip", "unmatched_zips"),
                            ("unknown-service-type", "code", "unknown_service_types")):
        listed = {entry[name]: entry["rows"] for entry in diagnostics if entry["kind"] == kind}
        check(listed == got[key], f"coverage: validate lists {kind} {listed}, the report {got[key]}")
    print(f"coverage: {len(gone)} unmatched regions, Zip {middle} and {expected['unknown_service_types']} "
          "counted as the CSV text shows, on one CPU and on all")


def damaged_trips(tmp):
    """The 1000-region city's trips.csv, damaged at three quarters of its
    bytes, in the reader's second half: `run` refuses it, and `validate`
    lists the same error, naming its line."""
    city = tmp / "all/city"
    whole = (city / "trips.csv").read_bytes()
    at = len(whole) * 3 // 4
    line = whole.count(b"\n", 0, at) + 1  # the line that holds byte `at`
    after = whole.index(b"\n", at) + 1  # where the next line starts
    for what, damaged, error in [
        ("a byte of trips.csv that is not UTF-8", whole[:at] + b"\xff" + whole[at:], f"{line}: not UTF-8 text"),
        ("a quote in trips.csv never closed", whole[:after] + b'"' + whole[after:],
         f"{line + 1}: quoted field not closed, or a field over {csv.field_size_limit()} characters"),
    ]:
        (city / "trips.csv").write_bytes(damaged)
        detail = refused(what, ("run", "--config", city / "config.json", "--out", tmp / "damaged"),
                         f"error: {city}/trips.csv: 1 invalid row(s); first at line {error}\n")
        on_one, on_all = (cli(cpus, "validate", "--config", city / "config.json")[0] for cpus in CPUS)
        check(on_one == on_all, f"{what}: validate on one CPU and on all differ:\n{on_one}{on_all}")
        errors = [entry for entry in json.loads(on_all) if entry["kind"] == "schema-error"]
        check(errors == [{"kind": "schema-error", "input": "trips", "detail": detail}],
              f"{what}: validate lists {errors}, not the error of run")
        print(f"{what}: validate lists the same error on one CPU and on all")


def stats_perm(tmp):
    """The stats-perm benchmark city, its synth files as SYNTH_DIGESTS records
    them, after `run --only stats --permutations 999`: the same artifacts on
    one CPU and on all, and stats.json and lorenz.csv as STATS_PERM_DIGESTS
    records them."""
    spec = '{"n_regions": 2500, "window_start": "2017-08-17", "baseline_days": 7, "horizon_days": 21, "ramp_range": [3, 15]}'
    (tmp / "perm.json").write_text(spec + "\n")
    cli("all", "synth", "--spec", tmp / "perm.json", "--out", tmp / "perm/city")
    same(f"{spec}: synth and SYNTH_DIGESTS", digests(tmp / "perm/city"), SYNTH_DIGESTS[spec])
    cli("all", "run", "--config", tmp / "perm/city/config.json", "--out", tmp / "perm/out")
    sums = {}
    for cpus in CPUS:
        shutil.copytree(tmp / "perm/out", tmp / "perm" / cpus)
        cli(cpus, "run", "--config", tmp / "perm/city/config.json", "--out", tmp / "perm" / cpus,
            "--only", "stats", "--permutations", PERMUTATIONS)
        sums[cpus] = digests(tmp / "perm" / cpus)
    same(f"{spec}: --only stats on one CPU and on all", sums["one"], sums["all"])
    same(f"{spec}: --only stats and STATS_PERM_DIGESTS",
         {name: sums["all"][name] for name in STATS_PERM_DIGESTS}, STATS_PERM_DIGESTS)
    print(f"{spec}: {len(sums['all'])} artifacts agree after run --only stats --permutations {PERMUTATIONS}")


def main():
    check(len(os.sched_getaffinity(0)) >= 2, "fewer than 2 usable CPUs: both sides would run in one process")
    for cpus in CPUS:
        out, _ = python(cpus, "-c", "from recovery_track import processes; print(processes.second_cpu())")
        check(out == f"{cpus == 'all'}\n", f"processes.second_cpu() is {out.strip()} on {cpus} CPU(s)")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cities(tmp)
        damaged_changes(tmp / "2")
        long_count(tmp / "1")
        coverage(tmp / "1")
        damaged_trips(tmp / "1")
        stats_perm(tmp)


if __name__ == "__main__":
    main()
