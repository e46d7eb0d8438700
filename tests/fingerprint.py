"""The canonical run fingerprint the cross-mode parity tests compare.

A run's observable outcome is its ``scalar_snapshot()``, its host
mailbox and its application output.  Modes that only change how the
host reaches the result (``batch_dispatch``) must leave all three
bit-identical, apart from the counters that describe the mode itself.
"""

#: counters that legitimately partition differently when batching is on
BATCH_KEYS = ("batches_executed", "records_batched", "events_interpreted")


def strip(snapshot, keys=BATCH_KEYS):
    """``snapshot`` without the mode-only counters in ``keys``."""
    return {k: v for k, v in snapshot.items() if k not in keys}


def mailbox(rt):
    """Host inbox as comparable values (delivery time, label, operands)."""
    return [(t, rec.label, rec.operands) for t, rec in rt.sim.host_inbox]
