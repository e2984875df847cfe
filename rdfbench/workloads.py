"""The workloads, their timed operations and the checks on each output.

A run builds its inputs from the seed, times the set-up calls that turn the
Turtle text into the stores the operations need, computes the reference
data of `ref.py` (untimed), then repeats whole rounds of operations until
`seconds` of operation time have been spent.  Every round holds the same
operations, so the share of operations that reach their cap is the same in
every run.  Each workload runs three families of operations, so that every
end-to-end metric is measured on every workload:

- load: `parse_turtle` -> `materialise` | `reduce_store` |
  `is_materialised` + `is_reduced` -> `serialize_turtle`, on the document;
- query: SELECT text, answered by rewriting over the reduced snapshot and
  by materialisation over the materialised one;
- update: each strategy replays the workload's update sequence from a fresh
  copy of its normalised base store; each result feeds the next update.

The workloads differ in the mix: `query` reuses one snapshot for many
query shapes, `update` runs the long update sequences and answers each query
on a snapshot nothing has queried before.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import calib
import gen
import ref
import spans
from rdfsupd import entailment, query, rewrite, sparql, turtle, update
from rdfsupd.model import (
    EXAMPLE_NS,
    ClassAtom,
    DomainAtom,
    RangeAtom,
    SubClassAtom,
    SubPropAtom,
    TripleStore,
    Var,
    store_diff,
)

STRATEGIES = ("naive", "mat0", "mat1a", "mat1b", "mat2", "red0", "red1",
              "outcut", "incut")
TBOX_STRATEGIES = ("naive", "mat0", "outcut", "incut")
RENORM = ("mat0", "mat1a", "mat1b", "red0", "outcut", "incut")
REWRITTEN = ("mat2", "red1")
INSERT_AGREE = ("mat0", "mat1a", "mat1b", "mat2")
MAT_FAMILY = ("mat1a", "mat1b", "mat2", "outcut", "incut")

# End-to-end latency metrics: name -> (scale to the unit, op-key prefixes).
LATENCY = {
    "query_rewrite_ms": (1e3, ("rewrite/",)),
    "query_mat_ms": (1e3, ("mat/",)),
    "update_naive_ms": (1e3, ("naive/",)),
    "update_renorm_ms": (1e3, tuple(f"{s}/" for s in RENORM)),
    "update_rewritten_ms": (1e3, tuple(f"{s}/" for s in REWRITTEN)),
    "load_mat_s": (1.0, ("load/mat",)),
    "load_red_s": (1.0, ("load/red",)),
    "load_check_s": (1.0, ("load/check",)),
}
UNITS = {name: ("ms" if name.endswith("_ms") else "s") for name in LATENCY}
UNITS.update(setup_s="s", ops_per_s="1/s", peak_rss_mb="MB")


@dataclass(frozen=True)
class QueryShape:
    """A SELECT pattern whose `$`-placeholders take constants from the seed;
    `reps` instances of it run per round, each on both routes."""

    name: str
    vars: tuple
    atoms: tuple
    choices: tuple = ()     # (placeholder, values); `$i` is any individual
    reps: int = 0           # 0: the workload's default


@dataclass(frozen=True)
class UpdateSpec:
    name: str
    delete: tuple = ()
    insert: tuple = ()
    where: tuple | None = None      # None: the DATA form
    strategies: tuple = STRATEGIES
    general: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    shape: gen.Shape
    queries: tuple
    updates: tuple
    query_reps: int
    fresh_snapshots: bool    # answer every query on a snapshot copy of its own


# Per-operation caps.  The slowest query or update that completes takes about
# 0.3 s and the fastest capped one more than 6 s; load operations take 0.2 s.
CAP_S = 1.0
LOAD_CAP_S = 10.0
LOAD_REPS = 4       # runs of each load operation per round
SETUP_REPS = 15


SMALL = gen.Shape(classes=20, props=6, individuals=100, roles=1000, class_facts=250,
                  balanced=True)

_DEEP = tuple(f"C{k}" for k in range(12, 21))
_QUERIES = {
    "p1": QueryShape("p1", ("?Y",), (("$i", "p1", "?Y"),)),
    "p6": QueryShape("p6", ("?Y",), (("$i", "p6", "?Y"),)),
    "c12": QueryShape("c12", (), (("$i", gen.TYPE, "C12"),)),
    "c6.p2": QueryShape("c6.p2", ("?X",),
                        (("?X", gen.TYPE, "C6"), ("?X", "p2", "$i"))),
    "p5.c4": QueryShape("p5.c4", ("?Y",),
                        (("$i", "p5", "?Y"), ("?Y", gen.TYPE, "C4"))),
    # `$i :p2 ?Y` in place of the first atom took up to 0.5 s by
    # materialisation for some individuals, too near the cap.
    "p1.p1.c3": QueryShape("p1.p1.c3", ("?Z",), (
        ("$i", "p1", "?Y"), ("?Y", "p1", "?Z"), ("?Z", gen.TYPE, "C3"))),
    # Thousands of disjuncts: passes the cap on both routes.
    "blowup": QueryShape("blowup", ("?X", "?Y"), (
        ("?X", gen.TYPE, "$c"), ("?X", "$p", "?Y"), ("?Y", gen.TYPE, "$d")),
        choices=(("$c", _DEEP), ("$p", ("p4", "p5", "p6")), ("$d", _DEEP)),
        reps=1),
}
_INS_DATA = UpdateSpec("ins_data", insert=(("$i1", gen.TYPE, "C3"), ("$i2", "p2", "$i3")))
_DEL_DATA = UpdateSpec("del_data", delete=(("$i4", gen.TYPE, "C17"), ("$i5", "p5", "$i6")))
_UPDATES = (
    _INS_DATA,
    UpdateSpec("ins_where", insert=(("?X", gen.TYPE, "C9"),),
               where=(("?X", "p3", "?Y"),)),
    _DEL_DATA,
    # `mat2` and `red1` pass the cap on these two: the rewritten delete
    # template is grounded over the whole term universe per WHERE solution.
    UpdateSpec("del_shallow", delete=(("?X", gen.TYPE, "C6"),),
               insert=(("?X", gen.TYPE, "C7"),),
               where=(("?X", gen.TYPE, "C6"), ("?X", "p1", "?Y"))),
    UpdateSpec("del_deep", delete=(("?X", gen.TYPE, "C12"),),
               insert=(("?X", gen.TYPE, "C13"),), where=(("?X", gen.TYPE, "C12"),)),
    UpdateSpec("del_role", delete=(("?X", "p2", "?Y"),), where=(("?X", "p1", "?Y"),)),
    UpdateSpec("del_sc", delete=(("C7", gen.SC, "C8"),), strategies=TBOX_STRATEGIES,
               general=True),
)

WORKLOADS = {
    "query": Workload(
        "query", SMALL,
        queries=tuple(_QUERIES.values()),
        updates=(_INS_DATA, _DEL_DATA),
        query_reps=3, fresh_snapshots=False),
    "update": Workload(
        "update", SMALL,
        queries=(_QUERIES["p6"], _QUERIES["c6.p2"], _QUERIES["p1.p1.c3"]),
        updates=_UPDATES,
        query_reps=4, fresh_snapshots=True),
}


# ---------------------------------------------------------------------------
# Conversions between the program's stores and the reference's triples
# ---------------------------------------------------------------------------

def local(iri) -> str:
    if not iri.value.startswith(EXAMPLE_NS):
        raise ValueError(f"unexpected IRI {iri}")
    return iri.value[len(EXAMPLE_NS):]


_TBOX_TAG = {SubClassAtom: gen.SC, SubPropAtom: gen.SP, DomainAtom: gen.DOM,
             RangeAtom: gen.RNG}


def facts_of(store) -> tuple[frozenset, frozenset]:
    """(TBox, ABox) of a store as reference triples."""
    tb = set()
    for ax in store.tbox:
        a, b = (ax.sub, ax.sup) if isinstance(ax, (SubClassAtom, SubPropAtom)) \
            else (ax.prop, ax.cls)
        tb.add((local(a), _TBOX_TAG[type(ax)], local(b)))
    ab = set()
    for f in store.abox:
        if isinstance(f, ClassAtom):
            ab.add((local(f.inst), gen.TYPE, local(f.cls)))
        else:
            ab.add((local(f.subj), local(f.prop), local(f.obj)))
    return frozenset(tb), frozenset(ab)


def rows_of(answer) -> frozenset:
    return frozenset(tuple(local(t) for t in row) for row in answer.rows)


def fingerprint(out):
    """A stand-in for an output already checked in full: equal outputs
    give equal fingerprints, and a changed fact changes the hash."""
    if isinstance(out, TripleStore):
        abox = out.abox
        return len(out.tbox), len(abox), hash(out.tbox), hash(abox)
    if isinstance(out, str):
        return hashlib.sha256(out.encode()).hexdigest()
    return out


def fresh(store) -> TripleStore:
    """An equal snapshot that shares no cached state with `store`."""
    return TripleStore(store.tbox, store.abox_explicit, store.abox_implicit, store.mode)


def _first_diff(got, want) -> str:
    extra, missing = sorted(got - want)[:3], sorted(want - got)[:3]
    return f"{len(got - want)} unexpected {extra}, {len(want - got)} missing {missing}"


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

class CapReached(Exception):
    pass


def _on_alarm(signum, frame):
    raise CapReached


@dataclass
class Runner:
    """Times operations under a wall-clock cap and keeps their figures."""

    cal: calib.Calibration
    times: dict = field(default_factory=dict)      # op key -> [scaled seconds]
    cal_times: list = field(default_factory=list)  # seconds of each calibration
    attempted: int = 0
    failed: int = 0
    spent: float = 0.0          # wall-clock seconds of operations
    spent_scaled: float = 0.0   # the same, scaled to the calibration
    capped: set = field(default_factory=set)       # keys of operations that failed
    slowest: float = 0.0        # wall-clock seconds of the slowest completed operation
    problems: list = field(default_factory=list)
    failed_ops: set = field(default_factory=set)
    rec: spans.Recorder | None = None

    def timed(self, key, cap, fn, check=None):
        """Run `fn` under `cap` seconds; return its result, or None when it
        reached the cap (counted as failed, timed as the cap).  The time
        kept is scaled by the calibration run just before (`calib.py`)."""
        self.attempted += 1
        op = self.attempted
        cal = self.cal.sample()
        self.cal_times.append(cal)
        if self.rec is not None:
            self.rec.op = op
        # Collections the operation triggers then scan only what it made,
        # not the stores and outputs earlier operations left alive.
        gc.freeze()
        signal.setitimer(signal.ITIMER_REAL, cap)
        t0 = time.perf_counter()
        try:
            out = fn()
            dt = time.perf_counter() - t0
        except CapReached:
            out, dt = None, cap
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if self.rec is not None:
                self.rec.op = None
                self.rec.stack.clear()
        scaled = dt if out is None else calib.scale(dt, cal)
        self.times.setdefault(key, []).append(scaled)
        self.spent += dt
        self.spent_scaled += scaled
        if out is None:
            self.failed += 1
            self.failed_ops.add(op)
            self.capped.add(key)
            return None
        self.slowest = max(self.slowest, dt)
        if check is not None:
            problem = check(out)
            if problem:
                self.problems.append(f"{key}: {problem}")
        return out

    def latency(self, scale, prefixes) -> float:
        """Geometric mean over operations of each operation's median."""
        medians = [statistics.median(ts) for key, ts in self.times.items()
                   if key.startswith(prefixes)]
        return scale * math.exp(sum(map(math.log, medians)) / len(medians))


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------

def _instances(shape: QueryShape, individuals: int, rng: random.Random,
               index: ref.Index):
    """Endless stream of (vars, atoms) for the shape: every combination of
    constants once, in seeded order, before any combination repeats.

    A shape whose only constant is `$i` takes the individuals in an order
    spread over their cost, so that the few dozen instances a run times
    cost what all would: the individuals are ranked by how many partial
    matches the reference matcher finds for them, and taken in
    `_even_order` of that ranking.  In seeded order the query metrics of
    `update` moved with the draw of instances by up to 15% between seeds."""
    names = sorted({t for a in shape.atoms for t in a if t.startswith("$")})
    pool = dict(shape.choices)
    pool.setdefault("$i", tuple(f"i{k}" for k in range(individuals)))
    combos = list(itertools.product(*(pool[n] for n in names)))
    rng.shuffle(combos)
    if names == ["$i"]:
        def matches(combo):
            atoms = tuple(tuple(combo[0] if t == "$i" else t for t in a)
                          for a in shape.atoms)
            return sum(len(ref.solutions(atoms[:k], index))
                       for k in range(1, len(atoms) + 1))

        ranked = sorted(combos, key=matches)     # stable: ties stay in seeded order
        combos = [ranked[k] for k in _even_order(len(ranked))]
    for combo in itertools.cycle(combos):
        sub = dict(zip(names, combo))
        yield shape.vars, tuple(tuple(sub.get(t, t) for t in a) for a in shape.atoms)


def _even_order(n: int) -> list[int]:
    """0 .. n-1 in bit-reversed (van der Corput) order of their place in
    [0, 1): every stretch of the order covers the range evenly."""
    out, seen, k = [], set(), 0
    while len(out) < n:
        x, bit, m = 0.0, 0.5, k
        while m:
            x += bit * (m & 1)
            m, bit = m >> 1, bit / 2
        i = int(x * n)
        if i not in seen:
            seen.add(i)
            out.append(i)
        k += 1
    return out


class Bench:
    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.tbox_t, self.abox_t = gen.store(wl.shape, seed)
        self.doc = gen.turtle(self.tbox_t + self.abox_t)
        self.tbox = ref.Tbox(self.tbox_t)
        self.doc_abox = frozenset(self.abox_t)
        self.closure = ref.closure(self.tbox, self.doc_abox)
        self.index = ref.Index(self.closure)
        rng = random.Random(f"{wl.name}/{seed}")
        self.streams = {s.name: _instances(s, wl.shape.individuals, rng, self.index)
                        for s in wl.queries}
        inds = rng.sample(range(wl.shape.individuals), 6)
        sub = {f"$i{k + 1}": f"i{v}" for k, v in enumerate(inds)}

        def bind(atoms):
            return tuple(tuple(sub.get(t, t) for t in a) for a in atoms)

        self.updates = []
        for spec in wl.updates:
            d, i = bind(spec.delete), bind(spec.insert)
            w = None if spec.where is None else bind(spec.where)
            tvars = sorted({t for a in d + i for t in a if t.startswith("?")})
            self.updates.append((spec, d, i, w, gen.update_text(d, i, w),
                                 tuple(Var(v[1:]) for v in tvars)))
        self.verified = {}      # op key -> fingerprint of the output checked in full
        self.cal = calib.Calibration()

    # -- set-up and reference data --------------------------------------

    def build(self):
        plain = turtle.parse_turtle(self.doc)
        mat = entailment.materialise(plain)
        red = entailment.reduce_store(plain)
        boot = update.bootstrap_partition(mat)
        return plain, mat, red, boot

    def setup(self) -> list:
        """Build the stores `SETUP_REPS` times; their times, scaled by the
        calibration run before each."""
        times = []
        for _ in range(SETUP_REPS):
            cal = self.cal.sample()
            t0 = time.perf_counter()
            stores = self.build()
            times.append(calib.scale(time.perf_counter() - t0, cal))
        plain, mat, red, boot = stores
        self.snap = {"rewrite": red, "mat": mat}
        self.base = {s: mat for s in STRATEGIES}
        self.base.update(naive=plain, mat1b=boot, red0=red, red1=red)
        return times

    def prepare(self):
        self.expect_check = (self.closure == self.doc_abox,
                             not ref.redundant(self.tbox, self.doc_abox))
        # The update checks take the base stores' closure and reduction as given.
        closed = self.tbox.closed()
        converted = {}
        self.base_facts = {sem: converted.setdefault(id(store), facts_of(store))
                           for sem, store in self.base.items()}
        for sem, (tb, ab) in self.base_facts.items():
            if sem == "naive":
                ok = (tb, ab) == (self.tbox.triples, self.doc_abox)
            elif sem in ("red0", "red1"):
                ok = tb == self.tbox.triples and not ref.redundant(self.tbox, ab) \
                    and ref.closure(self.tbox, ab) == self.closure
            else:
                ok = (tb, ab) == (closed, self.closure)
            if not ok:
                raise RuntimeError(f"set-up store for {sem} is wrong")

    # -- checks ------------------------------------------------------------

    def _once(self, key, out, full_check):
        """Check an output of a deterministic operation in full the first
        time, then by its fingerprint against the output that passed."""
        if key in self.verified:
            return None if fingerprint(out) == self.verified[key] \
                else "differs from round 1"
        problem = full_check(out)
        if not problem:
            self.verified[key] = fingerprint(out)
        return problem

    def check_mat_text(self, text):
        want = self.tbox.closed() | self.closure
        got = ref.parse_serialized(text)
        if got != want:
            return "materialised store: " + _first_diff(got, want)
        back = facts_of(turtle.parse_turtle(text))
        if back[0] | back[1] != want:
            return "serialise -> parse changed the store"
        return None

    def check_red_text(self, text):
        got = ref.parse_serialized(text)
        tb, ab = ref.split(got)
        if tb != self.tbox.triples:
            return "reduce_store changed the TBox"
        if ref.closure(self.tbox, ab) != self.closure:
            return "reduced store: closure " + _first_diff(
                ref.closure(self.tbox, ab), self.closure)
        extra = ref.redundant(self.tbox, ab)
        if extra:
            return f"{len(extra)} derivable assertions kept, e.g. {extra[:3]}"
        back = facts_of(turtle.parse_turtle(text))
        if back[0] | back[1] != got:
            return "serialise -> parse changed the store"
        return None

    def check_update(self, sem, spec, d, i, w, before, after):
        """`before` and `after` are `facts_of` the input and the output.
        The input is closed (mat family) or reduced (red family): the base
        stores are checked in `prepare`, later inputs were outputs that
        passed this check."""
        tb0, ab0 = before
        tb1, ab1 = after
        t = ref.Tbox(tb1)
        if sem in ("naive", "mat0"):
            # mat0 is materialise(naive): a closed superset of the naive
            # result whose other facts that result entails.
            tb, ab = ref.naive_update(tb0, ab0, d, i, w)
            if sem == "mat0":
                tb = ref.Tbox(tb).closed()
            if tb1 != tb:
                return "TBox " + _first_diff(tb1, tb)
            if sem == "naive" and ab1 != ab:
                return "ABox " + _first_diff(ab1, ab)
            if sem == "mat0":
                if not ab <= ab1:
                    return f"ABox misses {sorted(ab - ab1)[:3]}"
                extra = ref.underivable(t, ab, ab1 - ab)
                if extra:
                    return f"{len(extra)} facts not derivable, e.g. {extra[:3]}"
        only = None
        if tb1 == tb0:
            changed = {x for f in ab0 ^ ab1 for x in (f[0], f[2])}
            only = ref.touching(ab1, changed)
        if sem in ("mat0",) + MAT_FAMILY:
            if tb1 != t.closed():
                return "TBox not transitively closed"
            missing = ref.unclosed(t, ab1, only)
            if missing:
                return f"ABox not closed, missing {len(missing)}: {missing[:3]}"
        if sem in ("red0", "red1"):
            extra = ref.redundant(t, ab1, only)
            if extra:
                return f"not reduced: {extra[:3]}"
        return None

    # -- one round -----------------------------------------------------------

    def round(self, r: Runner):
        """One round: every stream's operations, spread evenly over the
        round so that each metric samples the whole run's machine state."""
        wl, steps = self.wl, {}
        streams = [(self._loads(r), 3 * LOAD_REPS)]
        streams += [(self._queries(r, shape), 2 * (shape.reps or wl.query_reps))
                    for shape in wl.queries]
        for sem in STRATEGIES:
            n = sum(sem in spec.strategies for spec, *_ in self.updates)
            streams.append((self._replay(r, sem, steps), n))
        live = [[0, total, stream] for stream, total in streams]
        while live:
            entry = min(live, key=lambda e: (e[0] + 0.5) / e[1])
            try:
                next(entry[2])
                entry[0] += 1
            except StopIteration:
                live.remove(entry)
        r.problems += self.disagreements(steps)

    def _loads(self, r: Runner):
        def mat():
            return turtle.serialize_turtle(
                entailment.materialise(turtle.parse_turtle(self.doc)))

        def red():
            return turtle.serialize_turtle(
                entailment.reduce_store(turtle.parse_turtle(self.doc)))

        def check():
            store = turtle.parse_turtle(self.doc)
            return entailment.is_materialised(store), entailment.is_reduced(store)

        def check_verdict(out):
            return None if out == self.expect_check else \
                f"got {out}, expected {self.expect_check}"

        for _ in range(LOAD_REPS):
            for name, fn, full in (("mat", mat, self.check_mat_text),
                                   ("red", red, self.check_red_text),
                                   ("check", check, check_verdict)):
                key = f"load/{name}"
                r.timed(key, LOAD_CAP_S, fn,
                        lambda out: self._once(key, out, full))
                yield

    def _queries(self, r: Runner, shape: QueryShape):
        for _ in range(shape.reps or self.wl.query_reps):
            vars_, atoms = next(self.streams[shape.name])
            text = gen.select_text(vars_, atoms)
            want = ref.answers(vars_, atoms, self.index)
            for route, answer in (("rewrite", query.answers_rdfs_rewriting),
                                  ("mat", query.answers_rdfs_materialisation)):
                snap = self.snap[route]
                if self.wl.fresh_snapshots:
                    snap = fresh(snap)

                def run_query():
                    q = sparql.parse_query(text)
                    return answer(q.where, snap, q.select_vars)

                r.timed(f"{route}/{shape.name}", CAP_S, run_query,
                        lambda out: None if rows_of(out) == want
                        else _first_diff(rows_of(out), want))
                yield

    def _replay(self, r: Runner, sem: str, steps: dict):
        """The update sequence under one strategy, from a fresh base copy;
        an update that reaches the cap leaves the store as it was."""
        store = fresh(self.base[sem])
        facts = self.base_facts[sem]    # of `store`, while a full check may need them
        for spec, d, i, w, text, tvars in self.updates:
            if sem not in spec.strategies:
                continue
            key = f"{sem}/{spec.name}"

            def run_update():
                op = sparql.parse_update(text, general=spec.general)
                return update.run(store, op, update.Semantics(sem))

            def full_check(out):
                nonlocal facts
                before = facts or facts_of(store)
                facts = facts_of(out)
                return self.check_update(sem, spec, d, i, w, before, facts)

            if r.rec is not None:
                r.rec.op_vars, r.rec.bindings = tvars, set()
            known = key in self.verified
            out = r.timed(key, CAP_S, run_update,
                          lambda out: self._once(key, out, full_check))
            if out is not None:
                if r.rec is not None:
                    self.count_update(r.rec, store, out)
                if sem in INSERT_AGREE and not d:
                    steps[sem, spec.name] = (fingerprint(store), fingerprint(out))
                if known:
                    facts = None    # checked by fingerprint: `facts` is stale
                store = out
            yield

    def disagreements(self, steps) -> list:
        """Insert-only updates must give one result under mat0, mat1a, mat1b
        and mat2 wherever the four strategies start from equal stores;
        `steps` holds the fingerprints of their inputs and outputs."""
        out = []
        for spec, d, *_ in self.updates:
            if d:
                continue
            pairs = [steps.get((s, spec.name)) for s in INSERT_AGREE]
            if None in pairs or any(p[0] != pairs[0][0] for p in pairs):
                continue
            if any(p[1] != pairs[0][1] for p in pairs):
                out.append(f"{spec.name}: {', '.join(INSERT_AGREE)} disagree")
        return out

    # -- traced run ----------------------------------------------------------

    def count_update(self, rec, before, after):
        diff = store_diff(before, after)
        rec.totals["update.distinct_bindings"] += len(rec.bindings)
        rec.totals["update.effective_deletes"] += len(diff.removed_tbox) + len(diff.removed_abox)
        rec.totals["update.effective_inserts"] += len(diff.added_tbox) + len(diff.added_abox)

    def cli_times(self, workdir) -> dict:
        """Wall time of `python -m rdfsupd` processes on the workload's files."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        doc = os.path.join(workdir, "doc.ttl")
        with open(doc, "w", encoding="utf-8") as fh:
            fh.write(self.doc)
        shape = self.wl.queries[0]
        vars_, atoms = next(self.streams[shape.name])
        spec, d, i, w, text, _ = self.updates[0]
        commands = {
            "cli.startup_ms": (["--help"], None),
            "cli.query_ms": (["query", gen.select_text(vars_, atoms), doc], None),
            "cli.update_ms": (["update", text, doc, "--semantics", "mat0", "--diff"], None),
            "cli.mat_ms": (["mat", doc], self.verified.get("load/mat")),
            "cli.red_ms": (["red", doc], self.verified.get("load/red")),
            "cli.check_ms": (["check", doc], fingerprint(
                "materialised: %s, reduced: %s\n" % tuple(
                    "yes" if x else "no" for x in self.expect_check))),
        }
        out = {}
        for name, (args, want) in commands.items():
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "rdfsupd", *args], env=env,
                                  cwd=root, capture_output=True, text=True, timeout=120)
            out[name] = 1e3 * (time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"{name}: exit {proc.returncode}: {proc.stderr[-300:]}")
            if want is not None and fingerprint(proc.stdout) != want:
                raise RuntimeError(f"{name}: output differs from the library's")
        return out


# ---------------------------------------------------------------------------
# Tracing: which public calls get spans, and the per-layer metrics
# ---------------------------------------------------------------------------

def _info(key, fn):
    def describe(rec, span, args_out):
        span.info[key] = fn(*args_out)
    return describe


def _binding(rec, span, item):
    if rec.op_vars is not None:
        theta = item[0]
        rec.bindings.add(tuple(theta.get(v) for v in rec.op_vars))


def install_tracing(rec: spans.Recorder):
    """Wrap the public calls of each layer (see README for the mapping)."""
    wrapped = [
        (turtle, "parse_turtle", None, None),
        (turtle, "serialize_turtle", None, None),
        (entailment, "materialise", None, None),
        (entailment, "tbox_closure", None, None),
        (entailment, "abox_fixpoint", _info(
            "derived", lambda a, out: len(out) - len(a[1])), None),
        (entailment, "reduce_store", _info("kept", lambda a, out: len(out.abox)), None),
        (entailment, "is_materialised", None, None),
        (entailment, "is_reduced", None, None),
        (rewrite, "rewrite_bgp", _info("disjuncts", lambda a, out: len(out.ucq)), None),
        (rewrite, "build_mat2_update", _info("where", lambda a, out: len(out.where)), None),
        (rewrite, "build_red1_update", _info("where", lambda a, out: len(out.where)), None),
        (rewrite, "build_cut_update", _info("where", lambda a, out: len(out.where)), None),
        (query, "answers_rdfs_rewriting", _info("rows", lambda a, out: len(out)), None),
        (query, "answers_rdfs_materialisation", _info("rows", lambda a, out: len(out)),
         None),
        (query, "update_solutions", _binding, None),
        (update, "run", None, lambda args: f"update.run[{args[2].value}]"),
    ]
    for mod, attr, describe, label in wrapped:
        fn = getattr(mod, attr)
        name = f"{mod.__name__.split('.')[-1]}.{attr}"
        rec.patch(fn, rec.wrap(name, fn, describe, label))
    init = TripleStore.__init__
    rec.patch_method(TripleStore, "__init__", rec.wrap(
        "model.TripleStore", init, _info("facts", lambda a, out: len(a[0].tbox)
                                          + len(a[0].abox_explicit)
                                          + len(a[0].abox_implicit))))
    rec.totals = dict.fromkeys(("update.distinct_bindings", "update.effective_deletes",
                                "update.effective_inserts"), 0)


LAYER_MS = {
    "turtle.parse_ms": ("turtle.parse_turtle",),
    "turtle.serialize_ms": ("turtle.serialize_turtle",),
    "model.store_build_ms": ("model.TripleStore",),
    "entailment.materialise_ms": ("entailment.materialise",),
    "entailment.tbox_closure_ms": ("entailment.tbox_closure",),
    "entailment.abox_fixpoint_ms": ("entailment.abox_fixpoint",),
    "entailment.reduce_ms": ("entailment.reduce_store",),
    "entailment.is_materialised_ms": ("entailment.is_materialised",),
    "entailment.is_reduced_ms": ("entailment.is_reduced",),
    "rewrite.rewrite_bgp_ms": ("rewrite.rewrite_bgp",),
    "rewrite.build_update_ms": ("rewrite.build_mat2_update", "rewrite.build_red1_update",
                                "rewrite.build_cut_update"),
    "query.eval_mat_ms": ("query.answers_rdfs_materialisation",),
    "query.where_ms": ("query.update_solutions",),
    **{f"update.{s}_ms": (f"update.run[{s}]",) for s in STRATEGIES},
}
LAYER_COUNTS = {
    "model.stored_facts": ("model.TripleStore", "facts"),
    "entailment.facts_derived": ("entailment.abox_fixpoint", "derived"),
    "entailment.facts_kept": ("entailment.reduce_store", "kept"),
    "rewrite.disjuncts": ("rewrite.rewrite_bgp", "disjuncts"),
    "rewrite.where_disjuncts": (None, "where"),
    "query.rows": (None, "rows"),
    "query.where_solutions": ("query.update_solutions", "items"),
}
CLI = ("cli.startup_ms", "cli.query_ms", "cli.update_ms", "cli.mat_ms", "cli.red_ms",
       "cli.check_ms")
PER_LAYER = (list(LAYER_MS) + ["query.eval_union_ms"] + list(LAYER_COUNTS)
             + ["update.distinct_bindings", "update.effective_deletes",
                "update.effective_inserts"] + list(CLI)
             + ["trace.overhead_pct", "trace.spans"])


def layer_metrics(rec: spans.Recorder, rounds: int, failed_ops: set) -> dict:
    """Per-round totals over the spans of operations that completed."""
    kept = [s for s in rec.spans if s.op not in failed_ops]
    out = {}
    for metric, names in LAYER_MS.items():
        out[metric] = 1e3 * sum(s.busy for s in kept if s.name in names) / rounds
    for metric, (name, key) in LAYER_COUNTS.items():
        out[metric] = sum(s.info.get(key, 0) for s in kept
                          if name is None or s.name == name) / rounds
    # Union evaluation: answering by rewriting, less the rewriting itself.
    union = sum(s.busy for s in kept if s.name == "query.answers_rdfs_rewriting")
    for s in kept:
        if s.name == "rewrite.rewrite_bgp" and s.parent is not None \
                and rec.spans[s.parent].name == "query.answers_rdfs_rewriting":
            union -= s.busy
    out["query.eval_union_ms"] = 1e3 * union / rounds
    for key, total in rec.totals.items():
        out[key] = total / rounds
    out["trace.spans"] = len(rec.spans) / rounds
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _rounds(bench: Bench, runner: Runner, seconds: float, least: int) -> int:
    """Whole rounds while another one fits in `seconds` of operation time,
    judged by the mean round so far; at least `least`."""
    start, rounds = runner.spent, 0
    while rounds < least or (runner.spent - start) * (rounds + 1) / rounds <= seconds:
        gc.unfreeze()
        gc.collect()
        bench.round(runner)
        rounds += 1
    return rounds


def end_to_end(runner: Runner, setup_times) -> dict:
    out = {name: runner.latency(scale, prefixes)
           for name, (scale, prefixes) in LATENCY.items()}
    out["setup_s"] = statistics.median(setup_times)
    out["ops_per_s"] = (runner.attempted - runner.failed) / runner.spent_scaled
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    signal.signal(signal.SIGALRM, _on_alarm)
    bench = Bench(WORKLOADS[workload], seed)
    setup_times = bench.setup()
    bench.prepare()

    runner = Runner(bench.cal)
    if not trace:
        # Two rounds at least, so that every operation has a median of repeats.
        _rounds(bench, runner, seconds, 2)
        metrics = end_to_end(runner, setup_times)
    else:
        # Half the time untraced, half traced: the difference is the overhead.
        _rounds(bench, runner, seconds / 2, 1)
        plain = runner.latency(1.0, ("",))
        traced = Runner(bench.cal, rec=spans.Recorder())
        install_tracing(traced.rec)
        try:
            rounds = _rounds(bench, traced, seconds / 2, 1)
        finally:
            traced.rec.uninstall()
        metrics = layer_metrics(traced.rec, rounds, traced.failed_ops)
        metrics["trace.overhead_pct"] = 100 * (traced.latency(1.0, ("",)) / plain - 1)
        workdir = os.path.join(out_dir, f"{workload}-{seed}")
        os.makedirs(workdir, exist_ok=True)
        metrics.update(bench.cli_times(workdir))
        traced.rec.write(os.path.join(workdir, "spans.jsonl"), traced.failed_ops)
        runner.attempted += traced.attempted
        runner.failed += traced.failed
        runner.problems += traced.problems
        runner.capped |= traced.capped
        runner.cal_times += traced.cal_times
        runner.slowest = max(runner.slowest, traced.slowest)
        with open(os.path.join(workdir, "self_times.json"), "w", encoding="utf-8") as fh:
            json.dump(traced.rec.self_times(), fh, indent=1, sort_keys=True)
    for p in runner.problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"rdfbench: {workload} seed {seed}: {runner.attempted} operations, "
          f"{runner.spent:.1f} s timed, calibration median "
          f"{1e3 * statistics.median(runner.cal_times):.2f} ms "
          f"(scaled to {1e3 * calib.NOMINAL_S:.2f} ms), "
          f"slowest completed {1e3 * runner.slowest:.0f} ms, "
          f"capped: {', '.join(sorted(runner.capped)) or 'none'}", file=sys.stderr)
    if set(metrics) != set(PER_LAYER if trace else UNITS):
        raise RuntimeError(f"metrics do not match their list: {sorted(metrics)}")
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": UNITS.get(k) or _layer_unit(k)}
                    for k, v in metrics.items()},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    return "count"
