"""The four benchmark workloads: sweep, cert, ortho and pairs.

A workload loads its committed inputs and seed-commit goldens from data/ and
turns the seed into *passes*.  A pass is a list of items; each item is one
call into tamerep (`run`) plus an oracle (`check`) that returns the problems
it finds in the call's output.  Every pass of a workload holds the same
number of items of the same kinds, so the figures of a run do not depend on
how many passes fit into it.  Items start from cold field caches, so an
item's time does not depend on the items run before it, and repeating a
pass repeats exactly the same work.  The seed only picks the order, the sample and
the random base changes; the library receives nothing but generated inputs.

Oracles never call into tamerep: they compare against goldens and against
checks written here, so a traced run counts only the work of the items.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path
from typing import Any, Callable

from tamerep import arith, certs, ff, ortho, sweep

DATA = Path(__file__).resolve().parent / "data"


@dataclasses.dataclass
class Item:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


def _load(name: str) -> dict:
    return json.loads((DATA / f"{name}.json").read_text())


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


class Sweep:
    """One item is one acceptance-sweep tuple (n, p, t, ell): form_phase,
    commutant_phase and group_phase over both signs.  Tuples that share
    (n, t, ell) share the field F_{ell^k} and the group order, and differ
    only in p; each pass takes one tuple of every such class, with p drawn
    by the seed, in seeded order.  Each item starts from cold field caches,
    as a new process would, so its time does not depend on the items run
    before it."""

    name = "sweep"

    def __init__(self, seed: int):
        doc = _load("sweep")
        self.seed = seed
        self.classes: dict[tuple, list[tuple]] = {}
        for n, p, t, ell in doc["tuples"]:
            self.classes.setdefault((n, t, ell), []).append((n, p, t, ell))
        self.golden = {
            (r["n"], r["p"], r["t"], r["ell"], r["sign"]): r for r in doc["records"]
        }
        self._clear_fields = ff.make_field.cache_clear

    def plan(self, index: int) -> list[Item]:
        rng = _rng(self.name, self.seed, index)
        chosen = [rng.choice(members) for _, members in sorted(self.classes.items())]
        rng.shuffle(chosen)
        return [self._item(tup) for tup in chosen]

    def _item(self, tup) -> Item:
        def run():
            self._clear_fields()
            items = sweep.form_phase([tup])
            sweep.commutant_phase(items)
            sweep.group_phase(items)
            return [rec for _, rec in items]

        return Item(f"{tup}", run, self._check)

    def _check(self, records) -> list[str]:
        problems = []
        for rec in records:
            key = (rec.n, rec.p, rec.t, rec.ell, rec.sign)
            base = rec.n * rec.t
            want_kind = "symmetric" if rec.sign == 1 else "alternating"
            if rec.form_dim != 1 or rec.form_kind != want_kind:
                problems.append(f"{key}: forms {rec.form_dim} {rec.form_kind}")
            if not rec.tame_relation:
                problems.append(f"{key}: tame relation fails")
            if rec.commutant != 1:
                problems.append(f"{key}: commutant {rec.commutant}")
            if rec.image_order != base * (1 if rec.sign == 1 else 2):
                problems.append(f"{key}: image order {rec.image_order}")
            if not rec.metacyclic:
                problems.append(f"{key}: not metacyclic")
            if dataclasses.asdict(rec) != self.golden.get(key):
                problems.append(f"{key}: record differs from golden")
        if len(records) != 2:
            problems.append(f"{len(records)} records, expected 2")
        return problems


class Cert:
    """One item builds a certificate, dumps it canonically, round-trips the
    JSON and verifies it.  Field caches are cleared before the build and
    again before the verify, because each `tamerep cert` or `verify` call
    starts cold.  Items are independent, so the seed only orders them."""

    name = "cert"

    def __init__(self, seed: int):
        self.seed = seed
        self.items = [(tuple(r["params"]), r["sha256"]) for r in _load("cert")["items"]]
        self._clear_fields = ff.make_field.cache_clear

    def plan(self, index: int) -> list[Item]:
        order = list(self.items)
        _rng(self.name, self.seed, index).shuffle(order)
        return [self._item(params, digest) for params, digest in order]

    def _item(self, params, digest) -> Item:
        n, p, t, sign, ell = params

        def run():
            self._clear_fields()
            text = certs.canonical_dump(certs.build_certificate(n, p, t, sign, ell))
            doc = json.loads(text)
            self._clear_fields()
            return text, doc, certs.verify_certificate(doc)

        def check(out) -> list[str]:
            text, doc, diffs = out
            problems = [f"verify: {d}" for d in diffs]
            if hashlib.sha256(text.encode()).hexdigest() != digest:
                problems.append("certificate bytes differ from golden")
            problems += [f"check {c['name']} fails" for c in doc["checks"] if not c["pass"]]
            return problems

        return Item(f"{params}", run, check)


def _matmul(a, b, q):
    return [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)] for row in a]


def _inverse(a, q):
    """Inverse of a square matrix over Z/q (q prime), or None if singular."""
    n = len(a)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if work[r][c] % q), None)
        if pivot is None:
            return None
        work[c], work[pivot] = work[pivot], work[c]
        inv = pow(work[c][c], -1, q)
        work[c] = [v * inv % q for v in work[c]]
        for r in range(n):
            if r != c and work[r][c]:
                f = work[r][c]
                work[r] = [(v - f * w) % q for v, w in zip(work[r], work[c])]
    return [row[n:] for row in work]


def _base_change(rng: random.Random, n: int, q: int):
    while True:
        h = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        h_inv = _inverse(h, q)
        if h_inv is not None:
            return h, h_inv


class Ortho:
    """Two item kinds over prime fields.  Kind 1 classifies generator sets
    without the containment promise, as `tamerep classify` receives them:
    SO and Omega of O+-(4,3), and O, SO and Omega of O+-(2,q) for q in
    {5, 7, 11, 13}.  Kind 2 closes the full orthogonal group of O+-(4,3)
    from its reflections.  Each pass conjugates every input by a fresh
    seeded base change h (gens become h^-1 g h, the Gram h^T G h), applied
    with the integer code above."""

    name = "ortho"

    def __init__(self, seed: int):
        doc = _load("ortho")
        self.seed = seed
        self.cap = doc["cap"]
        self.classify = doc["classify"]
        self.close = doc["close"]

    def plan(self, index: int) -> list[Item]:
        rng = _rng(self.name, self.seed, index)
        items = []
        for case in self.classify:
            q = case["q"]
            h, h_inv = _base_change(rng, case["n"], q)
            gram = _matmul(_matmul(list(zip(*h)), case["gram"], q), h, q)
            gens = [_matmul(_matmul(h_inv, g, q), h, q) for g in case["gens"]]
            items.append(self._classify_item(case, gens, gram))
        for case in self.close:
            q = case["q"]
            h, _ = _base_change(rng, case["n"], q)
            gram = _matmul(_matmul(list(zip(*h)), case["gram"], q), h, q)
            items.append(self._close_item(case, gram))
        rng.shuffle(items)
        return items

    def _space(self, q, gram):
        fld = ff.make_field(q, 1)
        return fld, ortho.QuadraticSpace(fld, certs.json_to_matrix(fld, gram))

    def _classify_item(self, case, gens, gram) -> Item:
        def run():
            fld, space = self._space(case["q"], gram)
            mats = [certs.json_to_matrix(fld, g) for g in gens]
            return ortho.classify_subgroup(mats, space, False)

        def check(placement) -> list[str]:
            problems = []
            if placement.label != case["label"]:
                problems.append(f"label {placement.label}, golden {case['label']}")
            if not placement.omega_verified:
                problems.append("Omega containment not verified")
            return problems

        label = f"classify {case['flavor']}{case['eps']}({case['n']},{case['q']})"
        return Item(label, run, check)

    def _close_item(self, case, gram) -> Item:
        def run():
            _, space = self._space(case["q"], gram)
            return ortho.orthogonal_group(space, self.cap)

        def check(grp) -> list[str]:
            if grp.order != case["order"]:
                return [f"order {grp.order}, golden {case['order']}"]
            return []

        return Item(f"close O{case['eps']}({case['n']},{case['q']})", run, check)


def _primes(limit: int) -> list[int]:
    mark = bytearray([1]) * (limit + 1)
    mark[0:2] = b"\0\0"
    for i in range(2, int(limit**0.5) + 1):
        if mark[i]:
            mark[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return [i for i, m in enumerate(mark) if m]


def count_pairs(primes, n, ell, p_max, t_max) -> int:
    """Pairs (p, t) that search_pairs must return, counted independently.

    For n a power of 2, ord_t(p) = n exactly when p^(n/2) = -1 mod t.
    """
    ps = [p for p in primes if max(n, ell) < p <= p_max]
    count = 0
    for t in primes:
        if t > t_max:
            break
        if t % n != 1 or t <= ell:
            continue
        e = n // 2
        count += sum(1 for p in ps if p != t and pow(p, e, t) == t - 1)
    return count


class Pairs:
    """One item is one search_pairs(n, ell, p_max, t_max, jobs=1) query.
    Each pass draws QUERIES_PER_N queries for every n in {2, 4, 8}: p_max
    and t_max are drawn from the j-th of QUERIES_PER_N equal slices of their
    ranges for the j-th query, and ell from {3, 5, 13}."""

    name = "pairs"
    P_RANGE = (1000, 2000)
    T_RANGE = (300, 600)
    QUERIES_PER_N = 12

    def __init__(self, seed: int):
        doc = _load("pairs")
        self.seed = seed
        self.ns, self.ells = doc["ns"], doc["ells"]
        if doc["p_max"] < self.P_RANGE[1] or doc["t_max"] < self.T_RANGE[1]:
            raise ValueError("pairs goldens do not cover the query ranges")
        self.golden = {(g["n"], g["ell"]): g["pairs"] for g in doc["golden"]}
        self.primes = _primes(self.P_RANGE[1])

    def _strata(self, rng, lo, hi) -> list[int]:
        m = self.QUERIES_PER_N
        return [lo + int((j + rng.random()) * (hi - lo) / m) for j in range(m)]

    def plan(self, index: int) -> list[Item]:
        rng = _rng(self.name, self.seed, index)
        queries = []
        for n in self.ns:
            # the j-th p stratum goes with the j-th t stratum, so every pass
            # asks for the same spread of query sizes
            p_maxes = self._strata(rng, *self.P_RANGE)
            t_maxes = self._strata(rng, *self.T_RANGE)
            for p_max, t_max in zip(p_maxes, t_maxes):
                queries.append((n, rng.choice(self.ells), p_max, t_max))
        rng.shuffle(queries)
        return [self._item(*q) for q in queries]

    def _item(self, n, ell, p_max, t_max) -> Item:
        def run():
            return arith.search_pairs(n, ell, p_max, t_max, jobs=1)

        def check(found) -> list[str]:
            got = [[c.p, c.t] for c in found]
            want = [pt for pt in self.golden[(n, ell)] if pt[0] <= p_max and pt[1] <= t_max]
            problems = []
            if got != want:
                problems.append(f"{len(got)} pairs differ from the {len(want)} golden")
            independent = count_pairs(self.primes, n, ell, p_max, t_max)
            if independent != len(got):
                problems.append(f"{len(got)} pairs, independent count {independent}")
            if not all(c.all_hold() for c in found):
                problems.append("a returned pair fails its own audit flags")
            return problems

        return Item(f"pairs n={n} ell={ell} p<={p_max} t<={t_max}", run, check)


WORKLOADS = {w.name: w for w in (Sweep, Cert, Ortho, Pairs)}
