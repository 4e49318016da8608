"""Structural checks on an ops log, for the tests that read one."""

from repro.obs.opslog import _STATUS_SEVERITY, OPS_SCHEMA_VERSION

_RECORD_TYPES = ("header", "sample", "heartbeat", "alert")


def validate_ops_log(records) -> list[str]:
    """Structural checks on an ops-log record list; returns problems.

    Mirrors the manifest validator's spirit: explicit, hand-rolled, no
    schema dependency. An empty return means the log is well-formed.
    """
    problems = []
    records = list(records)
    if not records:
        return ["empty ops log"]
    head = records[0]
    if head.get("type") != "header":
        problems.append("first record is not a header")
    elif head.get("schema_version") != OPS_SCHEMA_VERSION:
        problems.append(
            f"schema_version {head.get('schema_version')!r} != "
            f"{OPS_SCHEMA_VERSION}"
        )
    last_t = float("-inf")
    for i, record in enumerate(records):
        rtype = record.get("type")
        if rtype not in _RECORD_TYPES:
            problems.append(f"record {i}: unknown type {rtype!r}")
            continue
        if rtype == "header":
            if i != 0:
                problems.append(f"record {i}: header after the first line")
            continue
        t = record.get("t")
        if not isinstance(t, (int, float)):
            problems.append(f"record {i}: missing/non-numeric t")
            continue
        if t < last_t:
            problems.append(f"record {i}: t moves backwards ({t} < {last_t})")
        last_t = max(last_t, float(t))
        if rtype == "sample":
            if not isinstance(record.get("metrics"), list):
                problems.append(f"record {i}: sample without metrics list")
            if not isinstance(record.get("window_s"), (int, float)):
                problems.append(f"record {i}: sample without window_s")
        elif rtype == "heartbeat":
            if record.get("status") not in _STATUS_SEVERITY:
                problems.append(
                    f"record {i}: bad heartbeat status "
                    f"{record.get('status')!r}"
                )
            if not isinstance(record.get("heartbeat"), dict):
                problems.append(f"record {i}: heartbeat without fields")
        elif rtype == "alert":
            if record.get("kind") not in ("firing", "cleared"):
                problems.append(
                    f"record {i}: bad alert kind {record.get('kind')!r}"
                )
            if not record.get("rule"):
                problems.append(f"record {i}: alert without rule name")
    return problems
