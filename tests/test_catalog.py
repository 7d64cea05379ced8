"""Coverage for the service submission schema and the result catalog.

Property tests (Hypothesis) pin the three schema invariants the
coordinator leans on: JSON round-trip identity, fingerprint stability
under field reordering, and outright rejection of foreign schema
versions.  The catalog half covers atomic first-write-wins commits and
corruption-reads-as-miss semantics.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultEvent, FaultPlan
from repro.guard import GuardConfig
from repro.runner.parallel import _run_spec, experiment_fingerprint
from repro.service import (
    RECORD_VERSION,
    SCHEMA_VERSION,
    CatalogRecord,
    ClusterSubmission,
    ExperimentSubmission,
    JobSubmission,
    ResultCatalog,
    canonical_json,
    result_to_dict,
)
from repro.service.catalog import result_from_dict
from repro.service.schemas import guard_from_dict, guard_to_dict


def _submission(**over) -> ExperimentSubmission:
    defaults = dict(
        jobs=(JobSubmission("j0", "mpi-io-test", nprocs=4, size_mb=2),),
        cluster=ClusterSubmission(compute_nodes=4, data_servers=3),
        label="unit",
    )
    defaults.update(over)
    return ExperimentSubmission(**defaults)


# ---------------------------------------------------------------------------
# schema: validation and round-trips
# ---------------------------------------------------------------------------


def test_submission_roundtrips_through_dict_and_json():
    sub = _submission(
        quota_kb=256,
        guard=GuardConfig(min_hit_rate=0.5),
        fault_plan=FaultPlan(
            seed=7,
            events=(FaultEvent(kind="disk_failslow", at_s=0.1, until_s=0.5),),
        ),
    )
    assert ExperimentSubmission.from_dict(sub.to_dict()) == sub
    assert ExperimentSubmission.from_json(sub.to_json()) == sub


def test_submission_load_from_file(tmp_path):
    path = tmp_path / "spec.json"
    sub = _submission()
    path.write_text(sub.to_json(), encoding="utf-8")
    assert ExperimentSubmission.load(path) == sub


def test_unknown_fields_rejected_at_every_level():
    good = _submission().to_dict()
    for mutate in (
        lambda d: d.update(surprise=1),
        lambda d: d["jobs"][0].update(surprise=1),
        lambda d: d["cluster"].update(surprise=1),
        lambda d: d.update(guard={"job_cap_bytes": 1, "surprise": 2}),
        lambda d: d.update(
            fault_plan={"seed": 0, "events": [], "retry": {}, "surprise": 3}
        ),
    ):
        raw = json.loads(json.dumps(good))
        mutate(raw)
        with pytest.raises(ValueError, match="unknown"):
            ExperimentSubmission.from_dict(raw)


def test_missing_required_fields_rejected():
    raw = _submission().to_dict()
    del raw["jobs"][0]["name"]
    with pytest.raises(ValueError, match=r"missing JobSubmission fields: \['name'\]"):
        ExperimentSubmission.from_dict(raw)


def test_missing_schema_version_rejected():
    raw = _submission().to_dict()
    del raw["schema_version"]
    with pytest.raises(ValueError, match="schema_version"):
        ExperimentSubmission.from_dict(raw)


@given(version=st.integers().filter(lambda v: v != SCHEMA_VERSION))
@settings(max_examples=25)
def test_unknown_schema_version_rejected(version):
    raw = _submission().to_dict()
    raw["schema_version"] = version
    with pytest.raises(ValueError, match="unsupported schema_version"):
        ExperimentSubmission.from_dict(raw)


def test_submission_validation_rejects_bad_values():
    with pytest.raises(ValueError, match="at least one job"):
        _submission(jobs=())
    with pytest.raises(ValueError, match="unknown workload"):
        _submission(jobs=(JobSubmission("j", "no-such-workload"),))
    with pytest.raises(ValueError, match="unknown strategy"):
        _submission(jobs=(JobSubmission("j", "random", strategy="warp"),))
    with pytest.raises(ValueError):
        _submission(jobs=(JobSubmission("j", "random", op="sideways"),))
    with pytest.raises(ValueError, match="size_mb"):
        _submission(jobs=(JobSubmission("j", "random", size_mb=0),))
    with pytest.raises(ValueError, match="nprocs"):
        _submission(jobs=(JobSubmission("j", "random", nprocs=-1),))
    with pytest.raises(ValueError, match="io_scheduler"):
        _submission(cluster=ClusterSubmission(io_scheduler="fifo"))
    with pytest.raises(ValueError, match="tenant"):
        _submission(tenant="")
    with pytest.raises(ValueError, match="quota_kb"):
        _submission(quota_kb=0)


def test_submission_rejects_duplicate_job_names():
    with pytest.raises(ValueError, match="job names must be unique"):
        _submission(jobs=(JobSubmission("j", "random"), JobSubmission("j", "hpio")))


def test_op_aliases_normalise_to_one_canonical_form():
    a = _submission(jobs=(JobSubmission("j", "random", op="read"),))
    b = _submission(jobs=(JobSubmission("j", "random", op="R"),))
    assert a == b
    assert a.to_dict() == b.to_dict()


def test_guard_config_roundtrip_and_unknown_field_rejection():
    guard = GuardConfig(min_hit_rate=0.42, breaker_failures=5)
    assert guard_from_dict(guard_to_dict(guard)) == guard
    with pytest.raises(ValueError, match="unknown GuardConfig"):
        guard_from_dict({"min_hit_rate": 0.1, "surprise": True})


_MINIMAL = {"schema_version": 1, "jobs": [{"name": "j0", "workload": "mpi-io-test"}]}


@pytest.mark.parametrize(
    "extra, expected",
    [
        ({}, {}),
        ({"cluster": None}, {}),
        ({"fault_plan": None}, {}),
        ({"fault_plan": {}}, {}),
        ({"guard": {}}, {}),
        ({"observe": 1}, {"observe": True}),
        ({"limit_s": 5}, {"limit_s": 5}),
        ({"fault_plan": {"seed": "3"}}, {"fault_plan": FaultPlan(seed=3)}),
        (
            {"fault_plan": {"events": [
                {"kind": "net_partition", "at_s": 0, "until_s": 1, "nodes": [0, 2]}
            ]}},
            {"fault_plan": FaultPlan(events=(
                FaultEvent(kind="net_partition", at_s=0, until_s=1, nodes=(0, 2)),
            ))},
        ),
    ],
)
def test_submission_decoding_is_pinned(extra, expected):
    decoded = ExperimentSubmission.from_dict({**_MINIMAL, **extra})
    # repr, not ==: 1 == True and 5 == 5.0, but the fingerprint hashes reprs.
    want = ExperimentSubmission(jobs=(JobSubmission("j0", "mpi-io-test"),), **expected)
    assert repr(decoded) == repr(want)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: ``to_dict()`` of the docs/service.md example while ``FaultEvent`` still
#: carried the ``mirror_fail`` fields (member, rebuild rate and cap).
_EXAMPLE_DICT_WITH_MIRROR_FIELDS = {
    "schema_version": 1,
    "tenant": "acme",
    "label": "failslow sweep cell 3",
    "jobs": [
        {
            "name": "j0",
            "workload": "mpi-io-test",
            "nprocs": 64,
            "size_mb": 64,
            "op": "R",
            "strategy": "dualpar",
            "delay_s": 0.0,
        }
    ],
    "cluster": {
        "compute_nodes": 32,
        "data_servers": 9,
        "io_scheduler": "cfq",
        "stripe_unit": 65536,
    },
    "quota_kb": 1024,
    "limit_s": 1000000.0,
    "observe": False,
    "fault_plan": {
        "seed": 7,
        "events": [
            {
                "kind": "disk_failslow",
                "at_s": 0.1,
                "until_s": 0.5,
                "target": 0,
                "transfer_factor": 4.0,
                "extra_seek_s": 0.0,
                "member": 1,
                "rebuild_rate_bytes_s": 40000000.0,
                "rebuild_bytes": None,
                "extra_latency_s": 0.0,
                "jitter_s": 0.0,
                "nodes": [],
            }
        ],
        "retry": {
            "base_timeout_s": 2.0,
            "timeout_per_byte_s": 1e-06,
            "max_retries": 12,
            "backoff_base_s": 0.01,
            "backoff_factor": 2.0,
            "backoff_max_s": 2.0,
            "backoff_jitter": "none",
        },
    },
    "guard": None,
}


def test_to_json_bytes_are_pinned():
    docs = Path(__file__).resolve().parent.parent / "docs" / "service.md"
    example = docs.read_text(encoding="utf-8").split("```json\n", 1)[1].split("```")[0]
    sub = ExperimentSubmission.from_json(example)
    assert _sha256(sub.to_json()) == (
        "a9558829e36496f84501e2cd77b0c52823ee5e3ab36553d5ae09025a45ee3b56"
    )
    assert _sha256(sub.to_json(indent=None)) == (
        "9429d067e29b9c29b7fb1c151abd18ae7aa11ccab16eb1991734879585a92ede"
    )
    # These two hashes moved only because FaultEvent lost the RAID-1
    # mirror fields: the dict is the earlier one minus exactly those keys.
    earlier = json.loads(json.dumps(_EXAMPLE_DICT_WITH_MIRROR_FIELDS))
    for ev in earlier["fault_plan"]["events"]:
        for key in ("member", "rebuild_rate_bytes_s", "rebuild_bytes"):
            del ev[key]
    assert json.dumps(sub.to_dict()) == json.dumps(earlier)
    guarded = _submission(quota_kb=256, guard=GuardConfig(min_hit_rate=0.5))
    assert _sha256(guarded.to_json()) == (
        "818a2e161c0379afc18560bd6e520119f0668e12d63d722fab54ae44bcdc291a"
    )
    assert _sha256(_record().to_json()) == (
        "19521decc978194a7e51e1669cca4d64be3fd81a9d0910c177d4730331f71177"
    )
    # The coordinator sends record.to_dict() unsorted in its replies.
    assert _sha256(json.dumps(_record().to_dict())) == (
        "da9bf9567be6414e64db7cc820fffa5420c512d600b952ff12ef38d04a8a38a8"
    )


def test_declared_bytes_sums_job_sizes():
    sub = _submission(
        jobs=(
            JobSubmission("a", "random", size_mb=3),
            JobSubmission("b", "random", size_mb=5),
        )
    )
    assert sub.declared_bytes == 8 * 1024 * 1024


def test_fingerprint_matches_lowered_spec_and_separates_knobs():
    base = _submission()
    assert base.fingerprint() == experiment_fingerprint(base.to_experiment_spec())
    # Same submission, fresh object: same address.
    assert _submission().fingerprint() == base.fingerprint()
    # Any knob that changes the cell changes the address.
    for other in (
        _submission(jobs=(JobSubmission("j0", "mpi-io-test", nprocs=4, size_mb=4),)),
        _submission(
            jobs=(
                JobSubmission("j0", "mpi-io-test", nprocs=4, size_mb=2, strategy="collective"),
            )
        ),
        _submission(cluster=ClusterSubmission(compute_nodes=4, data_servers=4)),
        _submission(quota_kb=128),
        _submission(guard=GuardConfig()),
        _submission(fault_plan=FaultPlan(seed=1)),
    ):
        assert other.fingerprint() != base.fingerprint()


# ---------------------------------------------------------------------------
# schema: property tests
# ---------------------------------------------------------------------------

_jobs_st = st.lists(
    st.builds(
        JobSubmission,
        name=st.sampled_from(["alpha", "beta", "gamma"]),
        workload=st.sampled_from(["mpi-io-test", "random", "hpio"]),
        nprocs=st.integers(1, 16),
        size_mb=st.integers(1, 8),
        op=st.sampled_from(["R", "W", "read", "write"]),
        strategy=st.sampled_from(["vanilla", "collective", "dualpar"]),
        delay_s=st.floats(0, 2, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda job: job.name,
)

_submissions_st = st.builds(
    ExperimentSubmission,
    jobs=st.builds(tuple, _jobs_st),
    tenant=st.sampled_from(["default", "acme", "zephyr"]),
    label=st.text(alphabet="abc-", max_size=8),
    cluster=st.builds(
        ClusterSubmission,
        compute_nodes=st.integers(2, 8),
        data_servers=st.integers(2, 5),
        io_scheduler=st.sampled_from(["cfq", "noop"]),
    ),
    quota_kb=st.one_of(st.none(), st.integers(64, 1024)),
    observe=st.booleans(),
    guard=st.one_of(st.none(), st.builds(GuardConfig)),
    fault_plan=st.one_of(
        st.none(),
        st.builds(
            FaultPlan,
            seed=st.integers(0, 99),
            events=st.builds(
                lambda ev: (ev,),
                st.one_of(
                    st.builds(
                        FaultEvent,
                        kind=st.just("disk_failslow"),
                        at_s=st.floats(0, 1, allow_nan=False),
                        until_s=st.floats(1.5, 2, allow_nan=False),
                        transfer_factor=st.floats(1, 8, allow_nan=False),
                    ),
                    st.builds(
                        FaultEvent,
                        kind=st.just("net_degrade"),
                        at_s=st.floats(0, 1, allow_nan=False),
                        until_s=st.floats(1.5, 2, allow_nan=False),
                        extra_latency_s=st.floats(
                            0.001, 0.01, allow_nan=False
                        ),
                    ),
                ),
            ),
        ),
    ),
)


@given(sub=_submissions_st)
@settings(max_examples=40, deadline=None)
def test_property_roundtrip_identity(sub):
    assert ExperimentSubmission.from_dict(sub.to_dict()) == sub
    assert ExperimentSubmission.from_json(sub.to_json(indent=None)) == sub


def _shuffled(obj, rng):
    """Recursively rebuild dicts with randomised key insertion order."""
    if isinstance(obj, dict):
        keys = list(obj)
        rng.shuffle(keys)
        return {k: _shuffled(obj[k], rng) for k in keys}
    if isinstance(obj, list):
        return [_shuffled(v, rng) for v in obj]
    return obj


@given(sub=_submissions_st, rng=st.randoms())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_property_fingerprint_stable_under_field_reordering(sub, rng):
    raw = json.loads(json.dumps(_shuffled(sub.to_dict(), rng)))
    assert ExperimentSubmission.from_dict(raw).fingerprint() == sub.fingerprint()


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _record(fp="f" * 64, **over) -> CatalogRecord:
    defaults = dict(
        fingerprint=fp,
        code_version="c" * 64,
        submission=_submission().to_dict(),
        result={"makespan_s": 1.25},
        provenance={"tenant": "default", "worker_id": 0},
    )
    defaults.update(over)
    return CatalogRecord(**defaults)


def test_catalog_put_get_roundtrip(tmp_path):
    catalog = ResultCatalog(tmp_path)
    record = _record()
    assert record.fingerprint not in catalog
    assert catalog.put(record) is True
    assert record.fingerprint in catalog
    assert catalog.get(record.fingerprint) == record
    assert catalog.fingerprints() == [record.fingerprint]
    assert list(catalog.records()) == [record]
    assert len(catalog) == 1


def test_catalog_first_write_wins(tmp_path):
    catalog = ResultCatalog(tmp_path)
    first = _record(result={"makespan_s": 1.0})
    later = _record(result={"makespan_s": 9.0})
    assert catalog.put(first) is True
    assert catalog.put(later) is False
    assert catalog.get(first.fingerprint) == first
    assert len(catalog) == 1


def test_catalog_first_write_wins_without_an_exists_check(tmp_path, monkeypatch):
    """A writer that lost the race (its ``exists`` check saw nothing) still
    leaves the first record in place: the commit itself refuses."""
    from pathlib import Path

    catalog = ResultCatalog(tmp_path)
    first = _record(result={"makespan_s": 1.0})
    assert catalog.put(first) is True
    monkeypatch.setattr(Path, "exists", lambda self: False)
    assert catalog.put(_record(result={"makespan_s": 9.0})) is False
    monkeypatch.undo()
    assert catalog.get(first.fingerprint) == first
    assert not list(catalog.records_dir.glob("*.tmp"))


def test_catalog_put_heals_a_corrupt_record(tmp_path):
    catalog = ResultCatalog(tmp_path)
    record = _record()
    catalog.put(record)
    path = catalog.path_for(record.fingerprint)
    path.write_text(path.read_text()[:20])
    assert catalog.get(record.fingerprint) is None
    assert catalog.put(record) is True
    assert catalog.get(record.fingerprint) == record


def test_catalog_leaves_no_temp_files(tmp_path):
    catalog = ResultCatalog(tmp_path)
    for i in range(4):
        catalog.put(_record(fp=f"{i:064x}"))
    assert not list(catalog.records_dir.glob("*.tmp"))
    assert len(catalog) == 4


def test_catalog_corruption_reads_as_miss(tmp_path):
    catalog = ResultCatalog(tmp_path)
    record = _record()
    catalog.put(record)
    path = catalog.path_for(record.fingerprint)

    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    assert catalog.get(record.fingerprint) is None

    path.write_text('["not", "a", "record"]')
    assert catalog.get(record.fingerprint) is None

    # A whole record filed under the wrong fingerprint is also a miss.
    other = "0" * 64
    catalog.path_for(other).write_text(record.to_json())
    assert catalog.get(other) is None

    # Missing entries are a miss, not an error.
    assert catalog.get("9" * 64) is None


def test_record_version_gate():
    raw = _record().to_dict()
    raw["record_version"] = RECORD_VERSION + 1
    with pytest.raises(ValueError, match="unsupported record_version"):
        CatalogRecord.from_dict(raw)
    raw = _record().to_dict()
    del raw["record_version"]
    with pytest.raises(ValueError, match="record_version"):
        CatalogRecord.from_dict(raw)
    raw = _record().to_dict()
    raw["surprise"] = 1
    with pytest.raises(ValueError, match="unknown CatalogRecord"):
        CatalogRecord.from_dict(raw)


def test_result_to_dict_is_canonical_and_idempotent():
    slim = _run_spec(_submission().to_experiment_spec())
    payload = result_to_dict(slim)
    # Already JSON-normal form: re-encoding round-trips bit-identically.
    assert json.loads(canonical_json(payload)) == payload
    assert payload["makespan_s"] > 0
    assert payload["jobs"][0]["name"] == "j0"
    assert isinstance(payload["dualpar_transitions"], list)
    # And it is deterministic across runs of the same cell.
    again = result_to_dict(_run_spec(_submission().to_experiment_spec()))
    assert canonical_json(again) == canonical_json(payload)
    # result_from_dict reads the record form back without loss.
    assert result_to_dict(result_from_dict(payload)) == payload
