from __future__ import annotations

import ast
import csv
import filecmp
import hashlib
import json
import math
import signal
from pathlib import Path

import numpy as np
import pytest

import recovery_track.synth

from oracles import analytic_recovery_day, brute_force_recovery_day, smooth_truncated
from recovery_track import processes
from recovery_track.aggregate import build_daily_series, load_taxonomy
from recovery_track.errors import ScenarioError
from recovery_track.ingest import (
    parse_adjacency,
    parse_attributes,
    parse_overlaps,
    parse_transactions,
    parse_trips,
    resolve_crosswalk,
    broadcast_zip_to_regions,
)
from recovery_track.synth import (
    RAMP_EXPONENTIAL,
    RAMP_LINEAR,
    ScenarioSpec,
    generate,
    level_at,
    _amounts_as_read,
    _count_texts,
    _ground_truth_for,
    _scan_recovery,
    _smooth_truncated,
)

SMALL = {
    "name": "small",
    "seed": 5,
    "n_regions": 12,
    "horizon_days": 60,
    "regions_per_zip": 3,
}


def test_analytic_recovery_day_flat_curve():
    assert analytic_recovery_day(0.0, 10) == 2
    assert analytic_recovery_day(0.05, 25) == 2  # never leaves the 90% band


def test_analytic_recovery_day_half_drop_twenty_day_ramp():
    # curve reaches 90% of baseline at ceil(0.8 * 20) = 16 days, run ends at 18
    assert analytic_recovery_day(0.5, 20) == 18


def test_scan_truth_matches_analytic_in_interior_regime():
    # drop 0.3, ramp 31: crossing at day 21 sits >= 3 days from the event and
    # the run ends >= 3 days before the ramp ends, so smoothing is transparent
    drop, ramp = 0.3, 31
    pre, horizon = 21, 60
    level = 500.0
    values = [level] * (pre + 5)
    d0 = len(values)
    values += level_at(np.arange(horizon + 1), level, drop, ramp).tolist()
    duration, censored = _ground_truth_for(values, pre, d0, horizon)
    assert not censored
    assert duration == analytic_recovery_day(drop, ramp)


def test_ground_truth_censors_at_horizon():
    level = 300.0
    pre, horizon = 21, 40
    values = [level] * (pre + 5) + [level * 0.4] * (horizon + 1)
    duration, censored = _ground_truth_for(values, pre, pre + 5, horizon)
    assert censored
    assert duration == horizon


# ---------------------------------------------------------------------------
# the truth's helpers against their references, bit for bit


def _bits(values):
    return [float(value).hex() for value in values]


@pytest.mark.parametrize("shape", [RAMP_LINEAR, RAMP_EXPONENTIAL])
def test_level_at_over_entity_columns_is_the_per_entity_call(shape):
    rng = np.random.default_rng(3)
    t = np.arange(82) - 21  # 21 days before the event, 60 after
    n = 40
    level = rng.uniform(200.0, 2000.0, size=n)
    drop = rng.uniform(0.2, 0.9, size=n)
    ramp = rng.integers(1, 60, size=n).astype(float)  # as the generator scales them: integral floats
    drop[:6] = 0.0  # flat entities
    ramp[6:12] = [420.0, 780.0] * 3  # censored: a 60-day horizon's ramp of 600 days, scaled per category
    drop[6:12] = np.maximum(drop[6:12], 0.5)
    ramp[12:16] = ramp[16]  # entities that share a ramp
    columns = level_at(t, level[:, np.newaxis], drop[:, np.newaxis], ramp[:, np.newaxis], shape)
    assert columns.shape == (n, t.size)
    for i in range(n):
        one = level_at(t, level[i].item(), drop[i].item(), int(ramp[i]), shape)
        assert _bits(columns[i]) == _bits(one), i
    assert _bits(columns[:6].ravel()) == _bits(np.repeat(level[:6], t.size))  # a flat entity keeps its level


@pytest.mark.parametrize("half_width", range(5))
def test_truth_smoothing_matches_one_window_at_a_time(half_width):
    rng = np.random.default_rng(half_width)
    for n in range(21):  # from no window that fits to several
        for values in (
            rng.uniform(0.0, 1.0, size=n) * 10.0 ** rng.integers(-300, 300),
            rng.lognormal(0.0, 20.0, size=n),  # magnitudes far apart: the sum needs fsum
            rng.integers(0, 500, size=n) * 0.0371,  # weighted counts, as the truth sums them
        ):
            values = values.tolist()
            assert _bits(_smooth_truncated(values, half_width)) == _bits(smooth_truncated(values, half_width)), (n, values)


@pytest.mark.parametrize("run_length", range(1, 6))
def test_truth_scan_matches_brute_force(run_length):
    rng = np.random.default_rng(run_length)
    threshold = -0.1
    # on, just below and above the threshold, or NaN, which never qualifies
    choices = [threshold, np.nextafter(threshold, -1.0), 0.2, -0.6, np.nan]
    found = set()
    for _ in range(400):
        n = int(rng.integers(1, 30))
        changes = rng.choice(choices, size=n, p=[0.2, 0.1, 0.5, 0.1, 0.1]).tolist()
        d0 = int(rng.integers(0, n))
        horizon = int(rng.integers(0, n - d0))
        day = _scan_recovery(changes, d0, horizon, threshold, run_length)
        assert day == brute_force_recovery_day(changes, d0, horizon, threshold, run_length), (changes, d0, horizon)
        found.add(day is None)
    assert found == {True, False}


def test_amounts_as_read_are_the_values_of_their_texts():
    rng = np.random.default_rng(0)
    tiny, top = np.finfo(float).smallest_subnormal, np.finfo(float).max
    # (2m + 1) / 200 and k + 0.005 are half-cents in decimal; as doubles, 100 * v
    # may round onto the half-cent, or off it; 0.125 and 0.375 are half-cents in binary
    half_cents = [(2 * m + 1) / 200 for m in range(3000)] + [k + 0.005 for k in range(3000)]
    half_cents += [0.125, 0.375, 1e6 + 0.625, 2.0 ** 40 + 0.875]
    near = [np.nextafter(v, toward) for v in half_cents for toward in (0.0, np.inf)]
    large = [2.0 ** 52 / 100 * f for f in (0.999, 1.0, 1.001)] + [2.0 ** 50 + 0.125, 2.0 ** 52, 2.0 ** 53 + 2, 1e17, 1e300]
    extreme = [top, np.nextafter(top, 0.0), top / 100, np.nextafter(top / 100, np.inf), 1.7e306, np.inf, np.nan]
    small = [0.0, tiny, 1e-310, np.finfo(float).tiny, 0.004999, 0.005, 0.015, 0.025]
    negative = [-1.0, -0.005, -tiny, -top, -np.inf]
    spread = 2.0 ** rng.uniform(-1074.0, 1024.0, size=4000)
    values = np.concatenate([
        half_cents, near, large, extreme, small, negative, spread,
        rng.uniform(0.0, 1e4, size=4000), rng.integers(0, 10 ** 6, size=4000) / 100,
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        product = 100.0 * values
        assert np.sum(np.abs(product - np.rint(product)) == 0.5) > 100  # the rule's first case is reached
    values = values[: values.size // 7 * 7].reshape(7, -1)
    read = _amounts_as_read(values)
    assert read.shape == values.shape
    assert _bits(read.ravel()) == _bits(float(f"{max(v, 0.0):.2f}") for v in values.ravel().tolist())
    # which of two zeros np.maximum keeps is the platform's; the text follows it
    assert _amounts_as_read(np.array([-0.0])).tolist() == [0.0]


# ---------------------------------------------------------------------------
# trip-count texts: from one table where the largest count is below the
# number of cells, else str(int(count)); the table gives equal counts one text


@pytest.mark.parametrize("largest, table", [
    (6 * 5 - 1, True),  # the largest is cells - 1
    (6 * 5, False),  # the largest is cells
    (0, True),  # every count is zero
    (2.0 ** 64 + 2.0 ** 12, False),  # past 2^63, beyond int64
])
def test_trip_texts_are_str_int_on_both_sides_of_the_table_rule(largest, table):
    counts = np.floor(np.random.default_rng(1).uniform(0.0, largest + 1.0, size=(6, 5)))  # (cells, days)
    counts[2, 3] = largest
    if largest:
        counts[:2, 0] = 17.0
    if largest > 2.0 ** 63:
        counts[3, :2] = [2.0 ** 63, 4e19]
    texts = [list(day) for day in _count_texts(counts)]
    assert texts == [[str(int(count)) for count in day] for day in counts.T.tolist()]
    if largest:
        assert (texts[0][0] is texts[0][1]) == table  # the two 17s of day 0: one text from the table
    else:
        assert not counts.any()


def test_generation_is_deterministic(tmp_path):
    spec = ScenarioSpec.from_mapping(SMALL)
    generate(spec, tmp_path / "a")
    generate(spec, tmp_path / "b")
    for name in (
        "trips.csv",
        "transactions.csv",
        "overlaps.csv",
        "adjacency.csv",
        "attributes.csv",
        "ground_truth.csv",
        "config.json",
    ):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False), name


GOLDEN_SPEC = Path(__file__).resolve().parents[1] / "configs" / "golden_scenario.json"

HUGE_COUNTS = {**SMALL, "n_regions": 3, "horizon_days": 30, "baseline_level_range": [1e19, 4e19]}

# sha256 of every file `generate` writes, recorded from the per-cell generator
# that the array-at-a-time one replaced; noisy-exponential's from the
# entity-at-a-time one that the block-at-a-time one replaced
WRITTEN_DIGESTS = {
    "golden": (json.loads(GOLDEN_SPEC.read_text(encoding="utf-8")), {
        "trips.csv": "f19bcee56d50d5576d14d69d56a1fc05da0011dee8d083de391fac88313aaccf",
        "transactions.csv": "c23a335bcb3d0c3d58487eae9baceb71e288ef9c8c5ea5a854b9a4e2da9d1c7e",
        "overlaps.csv": "3451ee9d4f3dfc159cb82002e4491cb20e2c1cba771f136ecfd9925e0a2c8b38",
        "adjacency.csv": "332c6e2be38254db9d6ed8d2f51885dfddc5bb94756e9e106d5950b26ed434e2",
        "attributes.csv": "094cf602f0f9aa593f4a67795d83dbcf540ead9dc6bd9be704f529d8a32b461e",
        "ground_truth.csv": "5652617fc6b5ce49b9b4b316def80d54e1340d096c0cbab95513a8b1e79cccb1",
        "config.json": "6e4beaca7d0f2042a24c5057342fea3dcdde178689f725070b6dbdbd062f6782",
    }),
    "noisy": ({**SMALL, "noise": 0.02}, {
        "trips.csv": "3db120306f545ccd21355eb907c6ffbb613c463bca5bc3f1e9c80eea5093fab9",
        "transactions.csv": "ddf2b5e9ef6dd52bada6b8f38e75d34bebb69f7a5558002e2493fee7f4df02de",
        "overlaps.csv": "c9102a96821d7062b0dcd5d26f61a9e2c86afacdc2e8c0e64dbd69189ad5c23b",
        "adjacency.csv": "9e41f11ef1bd029546762eb393c8c22a0a2dfa9c74c91ee763251aca1e3e5022",
        "attributes.csv": "8ac307ce7d5f4731b8309633a7b0d6d7cdf9e1a311a397563b02da6fa93b0b4f",
        "ground_truth.csv": "0ac338f5d48d106936aa19a3346583fafbd381d50fc6496646c529880bb3325b",
        "config.json": "6c6003d7bfd4ac236d4c76a140883109426498b50de4d8d246b2e82ed07f5e29",
    }),
    "exponential": ({**SMALL, "ramp_shape": "exponential"}, {
        "trips.csv": "a695906fb48baa5ee7a204bd0f4facb3c52e4f7d14c21aee4a82d200416de1ec",
        "transactions.csv": "29a05a85116fbf2fb6a3b3588d7aa2c13fd687322e58a7c737e5ee154bb06a7e",
        "overlaps.csv": "c9102a96821d7062b0dcd5d26f61a9e2c86afacdc2e8c0e64dbd69189ad5c23b",
        "adjacency.csv": "9e41f11ef1bd029546762eb393c8c22a0a2dfa9c74c91ee763251aca1e3e5022",
        "attributes.csv": "8ac307ce7d5f4731b8309633a7b0d6d7cdf9e1a311a397563b02da6fa93b0b4f",
        "ground_truth.csv": "75e2f6226ae2251182340bb5461ed1ad0bdfd6a0322404a27854e0706a85331d",
        "config.json": "6c6003d7bfd4ac236d4c76a140883109426498b50de4d8d246b2e82ed07f5e29",
    }),
    "flat-and-censored": ({**SMALL, "flat_fraction": 0.3, "censored_fraction": 0.3}, {
        "trips.csv": "eaa49e8b9723348a93a15a551ed9528671f55646f0009e34c98b25437b8348c1",
        "transactions.csv": "ee15931bacae168be7084648a1bae4a595aa469242417f57158bd7f7a9d2bc61",
        "overlaps.csv": "c9102a96821d7062b0dcd5d26f61a9e2c86afacdc2e8c0e64dbd69189ad5c23b",
        "adjacency.csv": "9e41f11ef1bd029546762eb393c8c22a0a2dfa9c74c91ee763251aca1e3e5022",
        "attributes.csv": "bf986c9eb3bee98335f7a1700bb667f55aad5cea6540752aa03392761031f0d3",
        "ground_truth.csv": "76d64cac194a173ce4d9d20948e2c11bd767fac271f45c782487d7c326287a70",
        "config.json": "6c6003d7bfd4ac236d4c76a140883109426498b50de4d8d246b2e82ed07f5e29",
    }),
    "noisy-exponential": ({**SMALL, "noise": 0.05, "ramp_shape": "exponential", "censored_fraction": 0.3}, {
        "trips.csv": "9655fe3e6eb0328f6325e71748e5757c408a1f55331a4f4676d5262ab13e342d",
        "transactions.csv": "27976bf53b2148d21dcec187709f5fa8704a10bf276ecdfeef1bd1c933d52e85",
        "overlaps.csv": "c9102a96821d7062b0dcd5d26f61a9e2c86afacdc2e8c0e64dbd69189ad5c23b",
        "adjacency.csv": "9e41f11ef1bd029546762eb393c8c22a0a2dfa9c74c91ee763251aca1e3e5022",
        "attributes.csv": "c7a8a0323902a8d55857b46bce3802c134509203932095e7813096ab87a7af99",
        "ground_truth.csv": "f0d116c42712ff2ea0d9feee251def64aab071f8896aa7725de3d3758f1583f4",
        "config.json": "6c6003d7bfd4ac236d4c76a140883109426498b50de4d8d246b2e82ed07f5e29",
    }),
    # some of its trip counts pass 2**63, beyond int64
    "huge-counts": (HUGE_COUNTS, {
        "trips.csv": "3bc2fb7946704ab8b4f32f26ea7207c80fb1b13fcc5c0c7500d671b34256adcc",
        "transactions.csv": "b83091c2e691582e316fce68396376014cc6d853908f8a26c5bed0b1091a5515",
        "overlaps.csv": "10bea6b054500b5087b4ccc4eb7e8a188a375cddda228d0db122a7e90746243f",
        "adjacency.csv": "fe16fbd3145dc0ca9af4ab69a6f30387fc4490c583d07f5ac6bee137f1d22edc",
        "attributes.csv": "37ab875e0e0b8bd0671cc790e876052e5072014a5621a8ae8c958c7e0f956ce0",
        "ground_truth.csv": "9e6e0db7b3995f935f75aef06ae86fa501159fbc65b00dcbb1fd05915ff7c692",
        "config.json": "fb6ed595e17ac4f5a26b5b1a115b8cadf37a59cc967b946904a0e693acecd45e",
    }),
}


def _check_digests(out, name):
    """generate() writes WRITTEN_DIGESTS[name] into `out`, and nothing else."""
    raw, digests = WRITTEN_DIGESTS[name]
    paths = generate(ScenarioSpec.from_mapping(raw), out)
    assert set(paths) == set(digests)
    for file_name, path in paths.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digests[file_name], file_name
    assert sorted(path.name for path in out.iterdir()) == sorted(digests)  # no staging directory left


@pytest.mark.parametrize("name", sorted(WRITTEN_DIGESTS))
def test_written_files_keep_their_bytes(tmp_path, name):
    _check_digests(tmp_path, name)
    # trips.csv takes its texts from the table where its largest count is
    # below its number of cells; huge-counts alone takes str(int(count)), end to end
    counts = [int(line.rsplit(b",", 1)[1]) for line in (tmp_path / "trips.csv").read_bytes().splitlines()[1:]]
    assert (max(counts) < len(counts)) == (name != "huge-counts")


# ---------------------------------------------------------------------------
# the ground truth computed by a forked child while this process writes


@pytest.mark.parametrize("name", sorted(WRITTEN_DIGESTS))
def test_written_files_keep_their_bytes_in_two_processes(tmp_path, monkeypatch, forks, name):
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1)
    _check_digests(tmp_path, name)
    assert forks.exit_codes() == [0]


@pytest.mark.parametrize("name", sorted(WRITTEN_DIGESTS))
def test_written_files_keep_their_bytes_in_blocks_of_one_entity(tmp_path, monkeypatch, forks, name):
    monkeypatch.setattr(processes, "BLOCK_BYTES", 1)  # too small for one entity's values: one a block
    for split_cells, processes_run in ((math.inf, "one"), (1, "two")):
        monkeypatch.setattr(processes, "SPLIT_CELLS", split_cells)
        _check_digests(tmp_path / processes_run, name)
    assert forks.exit_codes() == [0]


@pytest.mark.parametrize("failure", ["raise", "exit_after_sending", "short", "no_fork", "no_pipe"])
def test_a_failed_truth_child_leaves_the_truth_to_this_process(tmp_path, monkeypatch, forks, failure):
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1)
    forks.fail(failure, wrong=lambda truth: tuple([[(0, True)] * 2 for _ in part] for part in truth))
    _check_digests(tmp_path, "noisy")
    assert forks.exit_codes() == {"raise": [1], "exit_after_sending": [3], "short": [0]}.get(failure, [])


def test_a_failure_in_this_process_kills_and_reaps_the_truth_child(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1)
    forks.fail("hang")

    def fail_after_a_line(*args):
        yield "2017-08-01,R0001,grocery,1\n"
        raise RuntimeError("this process fails")

    monkeypatch.setattr(recovery_track.synth, "_day_blocks", fail_after_a_line)
    with pytest.raises(RuntimeError, match="this process fails"):
        generate(ScenarioSpec.from_mapping(SMALL), tmp_path)
    assert forks.exit_codes() == [-signal.SIGKILL]
    assert not any(tmp_path.iterdir())  # the staged trips.csv went with its directory


def test_a_criterion_03_city_generates_in_one_process(tmp_path, forks):
    spec = {
        "seed": 0, "n_regions": 30, "horizon_days": 60, "noise": 0.02, "regions_per_zip": 3,
        "drop_range": [0.25, 0.85], "ramp_range": [8, 30], "flat_fraction": 0.0, "censored_fraction": 0.0,
    }
    paths = generate(ScenarioSpec.from_mapping(spec), tmp_path)
    with open(paths["trips.csv"], encoding="utf-8") as handle:
        cells = sum(1 for _ in handle) - 1
    assert 5_000 < cells < processes.SPLIT_CELLS
    assert not forks


def test_truth_uses_no_pipeline_code():
    # criterion 02 checks the pipeline against this truth, so it must not share its code
    tree = ast.parse(Path(recovery_track.synth.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            imported.update(f"{'.' * node.level}{alias.name}" for alias in node.names if not node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    forbidden = {".series", ".pipeline", "recovery_track.series", "recovery_track.pipeline"}
    assert not imported & forbidden, sorted(imported & forbidden)


def test_generated_files_roundtrip_with_zero_warnings(tmp_path):
    spec = ScenarioSpec.from_mapping(SMALL)
    paths = generate(spec, tmp_path)
    window = spec.window

    trips = parse_trips(paths["trips.csv"], window)
    assert trips.dropped == 0
    transactions = parse_transactions(paths["transactions.csv"], window)
    assert transactions.dropped == 0
    overlaps = parse_overlaps(paths["overlaps.csv"])
    adjacency = parse_adjacency(paths["adjacency.csv"])
    attributes = parse_attributes(paths["attributes.csv"])

    crosswalk = resolve_crosswalk(overlaps.records)
    regions = set(crosswalk)
    assert set(trips.records.entities) <= regions
    broadcast = broadcast_zip_to_regions(transactions.records, crosswalk)
    _, _, unmatched = build_daily_series(trips.records, transactions.records, broadcast, load_taxonomy(), window)
    assert unmatched["transaction"] == {}
    assert set(attributes.records) == regions
    assert set(adjacency.records) == regions


def test_ground_truth_covers_every_region_and_milestone(tmp_path):
    spec = ScenarioSpec.from_mapping(SMALL)
    paths = generate(spec, tmp_path)
    with open(paths["ground_truth.csv"]) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == spec.n_regions * 4
    for row in rows:
        duration = int(row["duration_days"])
        assert 0 <= duration <= spec.horizon_days
        if row["censored"] == "true":
            assert duration == spec.horizon_days


def test_censored_scenario_marks_everything_censored(tmp_path):
    spec = ScenarioSpec.from_mapping(
        {**SMALL, "flat_fraction": 0.0, "censored_fraction": 1.0}
    )
    paths = generate(spec, tmp_path)
    with open(paths["ground_truth.csv"]) as handle:
        rows = list(csv.DictReader(handle))
    assert all(row["censored"] == "true" for row in rows)


def test_flat_scenario_recovers_immediately(tmp_path):
    spec = ScenarioSpec.from_mapping(
        {**SMALL, "flat_fraction": 1.0, "censored_fraction": 0.0}
    )
    paths = generate(spec, tmp_path)
    with open(paths["ground_truth.csv"]) as handle:
        rows = list(csv.DictReader(handle))
    assert all(int(row["duration_days"]) == 2 for row in rows)


def test_exponential_ramp_supported(tmp_path):
    spec = ScenarioSpec.from_mapping({**SMALL, "ramp_shape": "exponential"})
    paths = generate(spec, tmp_path)
    with open(paths["ground_truth.csv"]) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == spec.n_regions * 4


def test_spec_reads_back_every_field():
    spec = ScenarioSpec.from_mapping({"n_regions": 5})
    assert spec == ScenarioSpec(n_regions=5)
    # every field given explicitly, as JSON would hold it
    raw = {
        name: value.isoformat() if hasattr(value, "isoformat") else
        list(value) if isinstance(value, tuple) else value
        for name, value in vars(spec).items()
    }
    assert ScenarioSpec.from_mapping(raw) == spec


def test_spec_errors_name_the_field():
    with pytest.raises(ScenarioError, match="n_regions"):
        ScenarioSpec.from_mapping({})
    with pytest.raises(ScenarioError, match="drop_range"):
        ScenarioSpec.from_mapping({**SMALL, "drop_range": [0.5, 1.4]})
    with pytest.raises(ScenarioError, match="noise"):
        ScenarioSpec.from_mapping({**SMALL, "noise": -0.5})
    with pytest.raises(ScenarioError, match="unknown scenario field"):
        ScenarioSpec.from_mapping({**SMALL, "wibble": 3})
    with pytest.raises(ScenarioError, match="baseline_days"):
        ScenarioSpec.from_mapping({**SMALL, "event_day": "2017-08-10"})
    mistyped = [
        ("seed", "abc"),
        ("n_regions", 6.7),
        ("clusters", True),
        ("horizon_days", "60"),
        ("noise", "0.1"),
        ("flat_fraction", False),
        ("ramp_range", [5, 60.5]),
        ("ramp_range", [True, 60]),
        ("drop_range", ["0.2", 0.9]),
        ("seed", -1),
        ("event_day", 20170910),
        ("window_start", 1),
        # past the calendar
        ("horizon_days", 1_000_000_000),
        ("baseline_days", 1_000_000_000),
        # json reads NaN and Infinity as floats
        ("baseline_level_range", [1, math.inf]),
        ("tx_level_range", [math.nan, 5]),
        # past 1e300, the ground truth's sums could pass the float range
        ("baseline_level_range", [1e308, 1.7e308]),
        ("tx_level_range", [1e308, 1.7e308]),
        ("baseline_level_range", [1e307, 1e308]),
        ("noise", math.nan),
        ("flat_fraction", -math.inf),
        ("ramp_shape", "cubic"),
        ("name", 5),
    ]
    for field, value in mistyped:
        with pytest.raises(ScenarioError, match=field):
            ScenarioSpec.from_mapping({**SMALL, field: value})
    assert ScenarioSpec.from_mapping({**SMALL, "n_regions": 6.0}).n_regions == 6
