"""Machine-speed calibration.

The benchmark shares a few cores of a host with other jobs, and the speed
of one process moves by up to 1.7x over seconds and between runs as they
come and go.  So before each timed operation (and each set-up repeat) a
run times one fixed piece of work that uses nothing of the program: the
reference closure, reduction test and pattern matching of `ref.py` and a
parse of Turtle text, on one small store that no seed changes.  Each
operation's time is then scaled by `NOMINAL_S` over the time of the
calibration just before it, which cancels what the host did to both: the
benchmark reports times at the speed at which the calibration takes
`NOMINAL_S`.  A change to the program moves the operation's time and not
the calibration's, so it moves the scaled time by the same share.
"""

from __future__ import annotations

import time

import gen
import ref

# About what the calibration takes between operations on the 2-core host
# the benchmark was tuned on (Python 3.11), so scaled times there read
# close to wall-clock ones.
NOMINAL_S = 0.007
_SHAPE = gen.Shape(classes=12, props=4, individuals=30, roles=120, class_facts=40)
_ATOMS = (("?X", gen.TYPE, "C6"), ("?X", "p2", "?Y"), ("?Y", gen.TYPE, "C4"))


class Calibration:
    def __init__(self):
        tbox, abox = gen.store(_SHAPE, 0)
        self.tbox = tbox
        self.doc = gen.turtle(tbox + abox)
        self.want = self.work()

    def work(self) -> tuple[int, int]:
        tbox = ref.Tbox(self.tbox)
        facts = ref.closure(tbox, ref.split(ref.parse_serialized(self.doc))[1])
        kept = facts - frozenset(ref.redundant(tbox, facts))
        return len(kept), len(ref.answers(("?X", "?Y"), _ATOMS, ref.Index(facts)))

    def sample(self) -> float:
        """Seconds the calibration takes now."""
        t0 = time.perf_counter()
        out = self.work()
        dt = time.perf_counter() - t0
        if out != self.want:
            raise RuntimeError(f"calibration gave {out}, not {self.want}")
        return dt


def scale(seconds: float, cal: float) -> float:
    """`seconds` of wall-clock time, measured next to a calibration that
    took `cal`, at the speed at which the calibration takes `NOMINAL_S`."""
    return seconds * NOMINAL_S / cal
