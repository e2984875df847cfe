"""Seeded inputs: stores as Turtle text, query and update text.

Nothing here imports `rdfsupd`.  Every fact is a triple of local names in
the default namespace `:` (`C7`, `p3`, `i42`), with `a` for `rdf:type` and
`sc`, `sp`, `dom`, `rng` for the four terminological predicates.  The same
triples feed the program (as Turtle) and the reference computations of
`ref.py`, so the two never share a parser.

Store shape: a subclass chain `C1 sc C2 ... sc Cn` (deeper classes have
more subclasses), a subproperty chain `p1 sp ... sp pm`, one domain and one
range class per property, and random class and role assertions over
`i0 .. i(N-1)`.
With `balanced` every property and individual takes part in the same
number of role assertions (to within one), drawn in random order, and the
class assertions go to individuals of their own,
`iN .. i(N+class_facts-1)`, one each, every class taking the same number.
So the counts that set the cost of a query or update (how many facts a
property has, how many class facts a reduced store keeps) do not change
from seed to seed: on individuals that also have roles, domain and range
axioms make nearly every class assertion redundant, and the few that a
reduction keeps would vary from 0 to 4 per class.  Otherwise each
assertion is an independent uniform draw.
With `random_dr` the domain and range classes are drawn from the seed;
otherwise they sit at fixed, evenly spaced positions, so every seed gives a
TBox of the same shape and only the assertions and query constants vary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TYPE, SC, SP, DOM, RNG = "a", "sc", "sp", "dom", "rng"
TBOX_PREDS = (SC, SP, DOM, RNG)
_TURTLE_PRED = {
    TYPE: "a",
    SC: "rdfs:subClassOf",
    SP: "rdfs:subPropertyOf",
    DOM: "rdfs:domain",
    RNG: "rdfs:range",
}


@dataclass(frozen=True)
class Shape:
    classes: int
    props: int
    individuals: int
    roles: int
    class_facts: int
    random_dr: bool = False
    balanced: bool = False


def tbox(shape: Shape, rng: random.Random) -> list[tuple[str, str, str]]:
    n, m = shape.classes, shape.props
    out = [(f"C{k}", SC, f"C{k + 1}") for k in range(1, n)]
    out += [(f"p{k}", SP, f"p{k + 1}") for k in range(1, m)]
    step = max(1, n // m)
    for k in range(1, m + 1):
        if shape.random_dr:
            d, r = rng.randint(1, n), rng.randint(1, n)
        else:
            d = 1 + (k - 1) * step
            r = min(n, d + step // 2 + 1)
        out += [(f"p{k}", DOM, f"C{d}"), (f"p{k}", RNG, f"C{r}")]
    return out


def _spread(values, count: int, rng: random.Random) -> list:
    """`count` draws of `values`, each as often as any other to within
    one, in random order."""
    values = list(values)
    out = values * (count // len(values)) + rng.sample(values, count % len(values))
    rng.shuffle(out)
    return out


def abox(shape: Shape, rng: random.Random) -> list[tuple[str, str, str]]:
    n, m, k = shape.classes, shape.props, shape.individuals
    if shape.balanced:
        subj, prop, obj = (_spread(range(lo, hi), shape.roles, rng)
                           for lo, hi in ((0, k), (1, m + 1), (0, k)))
        cls = _spread(range(1, n + 1), shape.class_facts, rng)
        return ([(f"i{s}", f"p{p}", f"i{o}") for s, p, o in zip(subj, prop, obj)]
                + [(f"i{k + x}", TYPE, f"C{c}") for x, c in enumerate(cls)])
    out = [
        (f"i{rng.randrange(k)}", f"p{rng.randint(1, m)}", f"i{rng.randrange(k)}")
        for _ in range(shape.roles)
    ]
    out += [
        (f"i{rng.randrange(k)}", TYPE, f"C{rng.randint(1, n)}")
        for _ in range(shape.class_facts)
    ]
    return out


def store(shape: Shape, seed: int) -> tuple[list, list]:
    """(tbox, abox) triples; the TBox draws first so a fixed-shape TBox
    leaves the assertion stream of a seed unchanged."""
    rng = random.Random(seed)
    return tbox(shape, rng), abox(shape, rng)


def term(name: str) -> str:
    return name if name in _TURTLE_PRED.values() else f":{name}"


def triple_text(s: str, p: str, o: str) -> str:
    return f"{term(s)} {_TURTLE_PRED.get(p, term(p))} {term(o)} ."


def turtle(triples) -> str:
    return "\n".join(triple_text(*t) for t in triples) + "\n"


def bgp_text(atoms) -> str:
    """Pattern text; atoms are triples whose variables start with `?`."""
    def t(x):
        return x if x.startswith("?") else term(x)
    return " ".join(
        f"{t(s)} {_TURTLE_PRED.get(p, t(p))} {t(o)} ." for s, p, o in atoms
    )


def select_text(vars_, atoms) -> str:
    head = " ".join(vars_) if vars_ else "*"
    return f"SELECT {head} WHERE {{ {bgp_text(atoms)} }}"


def update_text(delete, insert, where) -> str:
    """DELETE/INSERT/WHERE text; a missing WHERE gives the DATA form."""
    if where is None:
        kind, atoms = ("DELETE", delete) if delete else ("INSERT", insert)
        return f"{kind} DATA {{ {bgp_text(atoms)} }}"
    parts = []
    if delete:
        parts.append(f"DELETE {{ {bgp_text(delete)} }}")
    if insert:
        parts.append(f"INSERT {{ {bgp_text(insert)} }}")
    parts.append(f"WHERE {{ {bgp_text(where)} }}")
    return " ".join(parts)
