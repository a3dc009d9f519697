"""Names of the host-side fault kinds, written once.

Two layers speak these names: the server host, which arms them
(``DiskFaultShim.arm`` on the WAL's IO, the ``_chaos`` admin op on the
RPC transport), and the fault table in :mod:`repro.recovery.faults`,
which builds its disk and network rows from them. This module imports
nothing from ``repro`` so both can import it — ``repro.runtime`` pulls
in ``repro.recovery.faults`` at package import, and the recovery harness
pulls in ``repro.runtime.substrate``, so neither package can be the
other's leaf.
"""

# silent: the poisoned append *succeeds* and is acked; only the record's
# checksum knows. The other three are loud: the append or commit fails.
SILENT_CORRUPTION_KINDS = frozenset({"bit_flip", "wal_corrupt"})
DISK_FAULT_KINDS = (
    frozenset({"torn_write", "disk_full", "fsync_error"})
    | SILENT_CORRUPTION_KINDS
)

# transport-fault windows a server host can arm, in the order its RPC
# fault hook consults them (reset beats drop beats corrupt beats delay)
NETWORK_WINDOW_KINDS = ("conn_reset", "frame_drop", "frame_corrupt", "frame_delay")
