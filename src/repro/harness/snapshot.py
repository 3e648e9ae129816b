"""Hardware snapshots (paper Section III / StateMover lineage).

On the FPGA, TurboFuzz captures the complete design state — logic, FFs,
on-chip memories, DDR — via configuration readback when a mismatch occurs,
for offline replay in a software simulator.  Here a snapshot captures the
complete model state (architectural state, memory pages, micro-arch values,
coverage counters, cycle count) and can restore it bit-for-bit, which the
debugging workflow in the examples uses the same way.

A serialized snapshot is UTF-8 JSON: memory pages travel as base64 and
integer-keyed dicts (page indices, CSR addresses) as string keys that
:meth:`HardwareSnapshot.from_bytes` converts back and validates.
"""

import base64
import json
from dataclasses import dataclass, field

from repro.ref.memory import PAGE_SIZE

SNAPSHOT_FORMAT_VERSION = 1


def _checked(value, kind):
    if type(value) is not kind:
        raise ValueError(f"expected {kind.__name__}, got {value!r}")
    return value


def _int_list(values, length):
    if not isinstance(values, list) or len(values) != length:
        raise ValueError(f"expected a list of {length} integers")
    return [_checked(value, int) for value in values]


def _int_values(mapping):
    """``{name: int}`` dict (microarch values, coverage counts)."""
    return {name: _checked(value, int) for name, value in mapping.items()}


def _page(text):
    page = base64.b64decode(text, validate=True)
    if len(page) != PAGE_SIZE:
        raise ValueError(f"memory page of {len(page)} bytes, expected {PAGE_SIZE}")
    return page


@dataclass
class HardwareSnapshot:
    """A frozen, restorable copy of a DUT core's complete state."""

    core_name: str
    cycles: float
    retired: int
    arch_state: dict
    memory_pages: dict
    microarch_values: dict
    coverage_counts: dict = field(default_factory=dict)
    annotation: str = ""

    @classmethod
    def capture(cls, core, annotation=""):
        """Freeze the complete state of a DUT core."""
        return cls(
            core_name=core.name,
            cycles=core.cycles,
            retired=core.retired,
            arch_state=core.state.snapshot(),
            memory_pages=core.memory.snapshot_pages(),
            microarch_values=dict(core.vals),
            coverage_counts=(
                core.coverage.counts_by_module() if core.coverage else {}
            ),
            annotation=annotation,
        )

    def restore(self, core):
        """Load this snapshot back into a compatible core."""
        if core.name != self.core_name:
            raise ValueError(
                f"snapshot of {self.core_name!r} cannot restore {core.name!r}"
            )
        core.state.restore(self.arch_state)
        core.memory.restore_pages(self.memory_pages)
        core.vals.update(self.microarch_values)
        core.cycles = self.cycles
        core.retired = self.retired

    def to_bytes(self):
        """Serialize (the host-PC transfer of the paper's workflow)."""
        arch = dict(self.arch_state)
        arch["csrs"] = {str(address): value
                        for address, value in arch["csrs"].items()}
        payload = {
            "version": SNAPSHOT_FORMAT_VERSION,
            "core_name": self.core_name,
            "cycles": self.cycles,
            "retired": self.retired,
            "arch_state": arch,
            "memory_pages": {
                str(index): base64.b64encode(page).decode("ascii")
                for index, page in self.memory_pages.items()
            },
            "microarch_values": self.microarch_values,
            "coverage_counts": self.coverage_counts,
            "annotation": self.annotation,
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def from_bytes(cls, blob):
        """Parse :meth:`to_bytes` output; raises ``ValueError`` on a
        malformed or wrong-shaped blob."""
        try:
            data = json.loads(blob)
            if data["version"] != SNAPSHOT_FORMAT_VERSION:
                raise ValueError(
                    f"unsupported snapshot format {data['version']!r}")
            arch = data["arch_state"]
            reservation = arch["reservation"]
            return cls(
                core_name=_checked(data["core_name"], str),
                cycles=_checked(data["cycles"], float),
                retired=_checked(data["retired"], int),
                arch_state={
                    "xregs": _int_list(arch["xregs"], 32),
                    "fregs": _int_list(arch["fregs"], 32),
                    "pc": _checked(arch["pc"], int),
                    "csrs": {int(address): _checked(value, int)
                             for address, value in arch["csrs"].items()},
                    "privilege": _checked(arch["privilege"], int),
                    "reservation": (None if reservation is None
                                    else _checked(reservation, int)),
                },
                memory_pages={int(index): _page(text)
                              for index, text in data["memory_pages"].items()},
                microarch_values=_int_values(data["microarch_values"]),
                coverage_counts=_int_values(data["coverage_counts"]),
                annotation=_checked(data["annotation"], str),
            )
        except (KeyError, TypeError, AttributeError) as error:
            raise ValueError(f"malformed HardwareSnapshot blob: {error!r}") from error

    @property
    def resident_memory_bytes(self):
        return sum(len(page) for page in self.memory_pages.values())
