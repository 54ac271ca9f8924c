"""Exact verifier-output distributions for tiny instances, by enumeration.

Every random choice the verifier makes has finite support: the shift, the
interval index, the hash function (the whole coefficient family for the
instance width), the band index, and the uniform element pick. For n <= 6
the family of 2**(3n) hash functions is enumerable, so all output and
rejection masses come out as exact rationals, along with the conditional
placement probabilities that the structural sandwich and band-sum checks
are stated over.

The verifier's checks see a hash function only through its zero set, and
the family has few distinct zero sets (172 of 4096 functions at n=4, m=2).
A prover that declares ``depends_on_hash_zero_set`` is therefore asked
once per zero set, on its first member in family order, and the answer is
weighted by how many members share it. Other provers are asked once per
hash function. Within a challenge the structured enumerator counts that
integer weight per outcome first and weighs each count once as an exact
mass; each claim is finalized once per (band, element) and component.

Randomized provers are decomposed through ``randomness_support`` and every
structural statement is checked per deterministic component, mirroring the
fact that those statements are per-deterministic-prover guarantees; the
public output distribution is the support-weighted mixture.

Two enumerators are kept deliberately separate: a structured one that
reuses the protocol engine's own tables (``VerifierTables``), check and
finalize code, and a flat one that re-derives every check inline. The
flat one asks about every hash function whatever the prover declares,
walking the family once per hash width for the challenges of that width
of every component: per (a, b) in family order, each challenge in turn
about the members of one zero set at a time. It snapshots each answer as
it is returned (``marshal``, which keeps exact types), counts equal
snapshots per (challenge, zero set) over the whole walk, a run of equal
answers at once, and checks every distinct one in full once, after the
walk. Tests fail the build if they disagree.
Both decode each message with the verifier's own decoders
(``protocol.parse_histogram``, ``parse_sets`` and ``parse_table``), and
read set elements by the rule of ``protocol.exact_ints`` and histogram
entries, claims and table entries by that of ``protocol.exact_number``:
what a message says is decided once, and whether it passes is decided
twice. The flat one keeps its zero sets from scalar ``eval``, so check
(a)'s ``HashFunction.zero_on`` kernel is checked against an independent
path.
"""

from __future__ import annotations

import marshal
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from coinpress.dist import TAU, buckets, build_histogram, fraction_to_str, pow2
from coinpress.hashing import (
    BitPlanes,
    HashFunction,
    build_member,
    members_sharing_rows,
    output_planes,
    row_masks,
)
from coinpress.protocol import (
    MARSHAL_BYTES,
    MODE_TRIVIAL,
    ProtocolParams,
    ProverStrategy,
    VerifierTables,
    ask,
    check_sets,
    compute_live_bands,
    exact_ints,
    exact_number,
    finalize,
    parse_histogram,
    parse_sets,
    parse_table,
    probability_bin_key,
    validate_histogram_message,
    validate_table,
    REJECT_BAND_NOT_LIVE,
    REJECT_EMPTY_SET,
    REJECT_HASH_WIDTH,
    REJECT_MALFORMED_TABLE,
)

DEFAULT_BUDGET = 10**9

# The widest family the exact oracle enumerates. Zero sets are Python ints
# of any width, so the cap is the enumeration's cost, which no estimate
# guards yet: a pass asks about 2**(2n) (a, b) pairs per hash width, and
# the flat cross-check about all 2**(3n) members per challenge: a prover
# call and an exact-type snapshot each, with every distinct snapshot per
# (challenge, zero set) checked in full. The tests' vectorized reference,
# ``zero_set_masks``, packs each zero set in one uint64 and stays at
# n <= 6.
ZERO_SET_MAX_N = 6

# Relative slack enclosing the error of double-precision powers of two.
# Doubles carry ~1.1e-16 relative error per operation; 1e-14 leaves a wide
# margin, so enclosure endpoints rigorously bracket the true factors.
POW2_SLACK = Fraction(1, 10**14)


class EnumerationBudgetError(ValueError):
    """The instance is too large to enumerate exactly."""


def pow2_bounds(exponent: float) -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds enclosing 2**exponent (exact when integral)."""
    value = pow2(exponent)
    if isinstance(value, Fraction):
        return value, value
    approx = Fraction(value)
    return approx * (1 - POW2_SLACK), approx * (1 + POW2_SLACK)


def check_enumerable(params: ProtocolParams):
    """Raise ``EnumerationBudgetError`` unless both oracles can enumerate
    ``params``: a fallback run always can; a protocol run needs n <=
    ``ZERO_SET_MAX_N`` and at most ``DEFAULT_BUDGET`` (shift, interval,
    hash function) branches."""
    if params.mode == MODE_TRIVIAL:
        return
    if params.n > ZERO_SET_MAX_N:
        raise EnumerationBudgetError(
            f"n={params.n} exceeds the enumerable width {ZERO_SET_MAX_N}"
        )
    layout = params.layout
    branches = len(layout.shifts) * len(layout.index_range) * (8 ** params.n)
    if branches > DEFAULT_BUDGET:
        raise EnumerationBudgetError(
            f"{branches} branches exceed the budget of {DEFAULT_BUDGET}"
        )


def enumerable_support(prover: ProverStrategy) -> list[tuple[Fraction, ProverStrategy]]:
    """The (q, strategy) pairs of ``prover.randomness_support()`` with q > 0,
    q as a Fraction; raises ``ValueError`` unless the q sum to 1."""
    support = [(Fraction(q), strat) for q, strat in prover.randomness_support() if q != 0]
    total_q = sum((q for q, _ in support), Fraction(0))
    if total_q != 1:
        raise ValueError(f"prover support probabilities sum to {total_q}, expected 1")
    return support


@dataclass(frozen=True)
class ExactConfig:
    """A tiny instance: raw parameters plus a strategy with enumerable coins."""

    params: ProtocolParams
    prover: ProverStrategy

    def __post_init__(self):
        check_enumerable(self.params)


OutputKey = tuple  # (x, band, p)


@dataclass
class ShiftTables:
    """One shift of a component's enumeration.

    ``challenges``: per interval index of positive mass, (m, g, active
    bands, band-mass sum, rows); rows is None for a hash-width rejection,
    else the count of each row asked: one row per zero-set pattern
    (counting the members sharing it) or, for provers that read more of
    f, one row per hash function (count 1). ``placements``: per (x, band)
    that some hash function's checked sets place, its exact placement
    probability (``ComponentRun.placement_probability``), made once; an
    absent cell has probability 0."""

    challenges: dict[int, tuple]
    placements: dict[tuple[int, int], Fraction] = field(default_factory=dict)


@dataclass
class ComponentRun:
    """Enumeration results for one deterministic strategy of the support."""

    q: Fraction
    tables: Optional[VerifierTables]  # None when the component rejects in round 1
    reject_reason: Optional[str]
    shift_total: Fraction = Fraction(0)
    shifts: dict[int, ShiftTables] = field(default_factory=dict)
    outputs: dict[OutputKey, Fraction] = field(default_factory=dict)
    rejects: dict[str, Fraction] = field(default_factory=dict)
    # per shift of positive weight: the output masses conditioned on it
    per_shift: dict[int, dict[OutputKey, Fraction]] = field(default_factory=dict)

    def shift_prob(self, s: int) -> Fraction:
        return self.tables.shift_weights[s] / self.shift_total

    def placement_probability(self, s: int, x: int, j: int) -> Fraction:
        """Probability over the hash draw that all set checks pass and this
        component placed x in the set of band j, conditioned on the shift,
        the interval holding j, and x hashing to the zero target: a read of
        shift s's placement table. Zero for a cell no hash function places,
        so for a band in a gap or not live, and for every cell of a
        rejecting or fallback component, which keeps no shift tables."""
        st = self.shifts.get(s)
        return Fraction(0) if st is None else st.placements.get((x, j), Fraction(0))


def _accumulate(bins: dict, key, mass: Fraction):
    if mass == 0:
        return
    bins[key] = bins.get(key, Fraction(0)) + mass


class HashFamily:
    """The width-n hash family, as (f, count) rows for one output width m.

    ``patterns(m)`` has one row per distinct zero set: its first member in
    family order and how many members share it. It is computed once per m
    and kept for the lifetime of this object (one oracle pass).
    ``members(m)`` yields every member with count 1.

    For fixed (a, b) the zero set of c depends on c_low alone, and the
    first c of each c_low in family order is c_low itself. So the sweep
    visits (a, b) in family order, splits all 2**n inputs into the 2**m
    zero sets of c = 0 .. 2**m - 1 by the output planes of their images,
    and adds 2**(n - m) members to the count of each zero set it meets.
    """

    def __init__(self, n: int):
        self.n = n
        self._patterns: dict[int, list[tuple[HashFunction, int]]] = {}

    def patterns(self, m: int) -> list[tuple[HashFunction, int]]:
        rows = self._patterns.get(m)
        if rows is None:
            n, size = self.n, 1 << self.n
            inputs = BitPlanes.of(range(size), n)
            share = 1 << (n - m)
            first: dict[int, list] = {}  # zero set -> [(a, b, c, rows), count]
            for a in range(size):
                for b in range(size):
                    masks = row_masks(n, m, a, b)
                    zero_sets = [(1 << size) - 1]  # entry c: the zero set of c
                    for ones in output_planes(masks, inputs):
                        zero_sets = [z & ~ones for z in zero_sets] + [z & ones for z in zero_sets]
                    for c, zero_set in enumerate(zero_sets):
                        row = first.get(zero_set)
                        if row is None:
                            first[zero_set] = [(a, b, c, masks), share]
                        else:
                            row[1] += share
            # Each row gets a copy of its rows tuple, as the constructor
            # gives it one (``()`` at m = 0): ``HonestProver.produce_sets``
            # keeps answers under one tuple, and a fresh tuple per row keeps
            # every row a first call.
            rows = [
                (build_member(n, m, a, b, c, (*masks,)), count)
                for (a, b, c, masks), count in first.values()
            ]
            self._patterns[m] = rows
        return rows

    def members(self, m: int):
        size = 1 << self.n
        return (
            (f, 1)
            for a in range(size)
            for b in range(size)
            for f in members_sharing_rows(self.n, m, a, b)
        )


def _build_component(
    params: ProtocolParams, q: Fraction, strat: ProverStrategy, hash_family: HashFamily,
) -> ComponentRun:
    tables, reason = validate_histogram_message(ask(strat.produce_histogram), params)
    comp = ComponentRun(q=q, tables=tables, reject_reason=reason)
    if reason is not None:
        comp.rejects = {reason: Fraction(1)}
        return comp
    # A histogram that passes round 1 has positive mass, and every band lies
    # in an interval for all but one of at least two shifts, so the shift
    # draw is never degenerate: shift_total > 0.
    comp.shift_total = sum(tables.shift_weights.values(), Fraction(0))
    weights = tables.weights
    claims = {}  # (band, element) -> the p that finalize outputs for the claim
    for s in params.layout.shifts:
        st = comp.shifts[s] = ShiftTables(challenges={})
        w_s, per_interval = tables.shift_weights[s], tables.interval_weights[s]
        if w_s == 0:  # no interval of s has mass
            continue
        # Given s, one hash function of challenge k weighs per_interval[k] *
        # unit, and one of its bands j weights[j] * unit.
        unit = Fraction(1, 8 ** params.n) / w_s
        s_outputs: dict[OutputKey, Fraction] = {}
        s_rejects: dict[str, Fraction] = {}
        for k in params.layout.index_range:
            pending = tables.challenges.get((s, k))
            if pending is None:  # an interval of zero mass is never drawn
                continue
            m, g = pending.m, pending.g
            if m > params.n:
                st.challenges[k] = (m, g, (), pending.band_mass_sum, None)
                _accumulate(s_rejects, REJECT_HASH_WIDTH, per_interval[k] / w_s)
                continue
            source = hash_family.patterns(m) if strat.depends_on_hash_zero_set else hash_family.members(m)
            # Count, then weigh: the rows add integer pattern weight per
            # reject reason, per passing row (None), per active band left
            # empty, and per (x, band, set size) placed; each entry becomes
            # a mass once, after the rows.
            rows = []
            tally: dict = {}
            for f, count in source:
                record = parse_sets(ask(strat.produce_sets, s, k, f, g, m))
                sets, why = check_sets(record, f, pending, params)
                rows.append(count)
                tally[why] = tally.get(why, 0) + count
                if why is not None:
                    continue
                for j, members in sets.items():  # an empty band counts under j alone
                    for key in [(x, j, len(members)) for x in members] or [j]:
                        tally[key] = tally.get(key, 0) + count
            not_live = sum((weights[j] for j in pending.interval if j not in pending.active), Fraction(0))
            hits: dict[tuple[int, int], int] = {}
            for key, count in tally.items():
                if key is None:
                    _accumulate(s_rejects, REJECT_BAND_NOT_LIVE, count * not_live * unit)
                elif isinstance(key, str):
                    _accumulate(s_rejects, key, count * per_interval[k] * unit)
                elif isinstance(key, int):
                    _accumulate(s_rejects, REJECT_EMPTY_SET, count * weights[key] * unit)
                else:
                    x, j, size = key
                    hits[x, j] = hits.get((x, j), 0) + count
                    p = claims.get((j, x))
                    if p is None:
                        p = claims[j, x] = finalize(j, x, ask(strat.produce_probability, j, x), params).p
                    _accumulate(s_outputs, (x, j, p), count * weights[j] * unit / size)
            st.challenges[k] = (m, g, pending.active, pending.band_mass_sum, rows)
            # For each (a, b) exactly 2**(n - m) values of c send x to zero, so
            # 8**n >> m functions condition on it, whatever x is.
            conditioned = (8 ** params.n) >> m
            for cell, count in hits.items():
                st.placements[cell] = Fraction(count, conditioned)
        comp.per_shift[s] = s_outputs
        s_prob = comp.shift_prob(s)
        for key, mass in s_outputs.items():
            _accumulate(comp.outputs, key, s_prob * mass)
        for why, mass in s_rejects.items():
            _accumulate(comp.rejects, why, s_prob * mass)
    return comp


def _build_trivial_component(params: ProtocolParams, q: Fraction, strat: ProverStrategy) -> ComponentRun:
    comp = ComponentRun(q=q, tables=None, reject_reason=None)
    table = parse_table(ask(strat.produce_table))
    reason = validate_table(table, params)
    if reason is not None:
        comp.reject_reason = reason
        comp.rejects = {REJECT_MALFORMED_TABLE: Fraction(1)}
        return comp
    for x, p in table:
        _accumulate(comp.outputs, (x, None, p), p)
    return comp


@dataclass
class ExactDistribution:
    """Exact masses of one run: outputs keyed by (x, band, p), plus rejects."""

    params_digest: str
    outputs: dict[OutputKey, Fraction]
    reject_by_reason: dict[str, Fraction]

    @property
    def reject_mass(self) -> Fraction:
        return sum(self.reject_by_reason.values(), Fraction(0))

    def total_mass(self) -> Fraction:
        return sum(self.outputs.values(), Fraction(0)) + self.reject_mass

    def element_marginal(self) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for (x, _band, _p), massv in self.outputs.items():
            out[x] = out.get(x, Fraction(0)) + massv
        return out

    def by_element_probability(self) -> dict[tuple, Fraction]:
        out: dict[tuple, Fraction] = {}
        for (x, _band, p), massv in self.outputs.items():
            out[(x, p)] = out.get((x, p), Fraction(0)) + massv
        return out

    def soundness_sums(self) -> dict[int, Fraction]:
        """Per-element sum of mass / p over all output cells, exact (tagged
        reals are divided at their double value)."""
        sums: dict[int, Fraction] = {}
        for (x, _band, p), massv in self.outputs.items():
            sums[x] = sums.get(x, Fraction(0)) + massv / Fraction(p)
        return sums


class OracleRun:
    """One enumeration pass over a config; all exact checks read from it."""

    def __init__(self, cfg: ExactConfig):
        self.cfg = cfg
        self.params = cfg.params
        self.components: list[ComponentRun] = []
        hash_family = HashFamily(cfg.params.n)
        for q, strat in enumerable_support(cfg.prover):
            if cfg.params.mode == MODE_TRIVIAL:
                self.components.append(_build_trivial_component(cfg.params, q, strat))
            else:
                self.components.append(_build_component(cfg.params, q, strat, hash_family))

    @property
    def distribution(self) -> ExactDistribution:
        outputs: dict[OutputKey, Fraction] = {}
        rejects: dict[str, Fraction] = {}
        for comp in self.components:
            for key, mass in comp.outputs.items():
                _accumulate(outputs, key, comp.q * mass)
            for why, mass in comp.rejects.items():
                _accumulate(rejects, why, comp.q * mass)
        return ExactDistribution(
            params_digest=self.params.digest(), outputs=outputs, reject_by_reason=rejects,
        )


def exact_output_distribution(cfg: ExactConfig) -> ExactDistribution:
    """The verifier's exact output distribution for the configured prover."""
    return OracleRun(cfg).distribution


# ---------------------------------------------------------------------------
# Independent flat enumerator (cross-validation)


def exact_output_distribution_flat(params: ProtocolParams, prover: ProverStrategy):
    """Independent re-derivation of the output distribution, written flat.

    Shares with the engine only the layout, the hash primitive, the
    enumeration budget (``check_enumerable``, applied before the prover is
    asked anything), the support's sum-to-1 rule (``enumerable_support``)
    and the readers of a prover's messages: ``ask``, which turns a
    ``produce_*`` call that raises into an unreadable message, the decoders
    ``parse_histogram``, ``parse_sets`` and ``parse_table``, and
    ``exact_number`` and ``exact_ints`` for the values in them. Every
    check is re-implemented inline: the histogram's length, signs and sum, liveness, challenge
    arithmetic, the set checks (keys, ranges, duplicates, size, (a), (b)
    and (c)), the table's range, distinctness and sum, and probability
    substitution.
    Each component's challenge constants are worked out first. The
    challenges of every component are then grouped by hash width m, and
    the family is walked once per width for the whole prover: each hash
    function is built once, and per (a, b) every component is asked about
    each of its challenges of that width, components in support order, one
    zero set's members at a time, whatever the prover declares. Each answer
    is snapshotted when returned, counted per (challenge, zero set,
    snapshot) over the whole walk, runs of equal answers at once, and every
    distinct one is checked in full once, after the walk (see
    ``_flat_sweep``, which also gives the memory this takes). Within one
    challenge, identical outcomes are counted first and their masses
    computed once.
    Returns (outputs keyed by (x, band, p), total reject mass).
    """
    check_enumerable(params)
    outputs: dict[OutputKey, Fraction] = {}
    reject = Fraction(0)
    size = 1 << params.n
    # per component that reaches the set round: (strat, h, challenges), with
    # one (pr_k, members, wk, act, act_set, tally) per challenge in layout
    # order; per hash width m, in order of first use: the (produce_sets, s,
    # k, g, act, act_set, windows, tally) rows that one family walk answers
    components = []
    by_width: dict[int, list] = {}
    for q, strat in enumerable_support(prover):
        if params.mode == MODE_TRIVIAL:
            table = parse_table(ask(strat.produce_table))
            ok = table is not None and (
                all(0 <= x < (1 << params.n) and 0 < p <= 1 for x, p in table)
                and len({x for x, _ in table}) == len(table)
                and sum((p for _, p in table), Fraction(0)) == 1
            )
            if not ok:
                reject += q
            else:
                for x, p in table:
                    _accumulate(outputs, (x, None, p), q * p)
            continue
        h = parse_histogram(ask(strat.produce_histogram))
        bad = h is None or len(h) != params.t + 1
        if not bad:
            h = [exact_number(w) for w in h]
            bad = None in h
        if not bad:
            h = [Fraction(w) for w in h]
            total = sum(h, Fraction(0))
            bad = any(w < 0 for w in h) or not (1 - Fraction(1, 2**params.n)) <= total <= 1
        if bad:
            reject += q
            continue
        thresh = Fraction(params.eps) / (2 * params.t)
        live = {j for j, w in enumerate(h) if w >= thresh}
        layout = params.layout
        shift_w = {
            s: sum((h[j] for ivs in layout.intervals[s] for j in ivs), Fraction(0))
            for s in layout.shifts
        }
        big_w = sum(shift_w.values(), Fraction(0))
        if big_w == 0:
            reject += q
            continue
        challenges = []
        for s in layout.shifts:
            if shift_w[s] == 0:
                continue
            pr_s = q * shift_w[s] / big_w
            for k in layout.index_range:
                members = layout.interval(s, k)
                wk = sum((h[j] for j in members), Fraction(0))
                if wk == 0:
                    continue
                pr_k = pr_s * wk / shift_w[s]
                try:
                    z = sum((2.0 ** (i * params.eps)) * float(h[i]) for i in members)
                except OverflowError:
                    z = math.inf
                if 0 < z < math.inf:
                    level = math.log2(z)
                else:
                    # float underflow or overflow: combine exact per-band logs instead
                    logs = [
                        i * params.eps + math.log2(h[i].numerator) - math.log2(h[i].denominator)
                        for i in members
                        if h[i] > 0
                    ]
                    top = max(logs)
                    level = top + math.log2(sum(2.0 ** (lg - top) for lg in logs))
                m = max(0, math.floor(level - params.sampling_gap))
                g = params.sampling_gap + (level - params.sampling_gap) - math.floor(
                    level - params.sampling_gap
                )
                if m > params.n:
                    reject += pr_k
                    continue
                act = sorted(i for i in members if i in live)
                act_set = set(act)
                # check (b)'s cardinality window of each active band, widened
                # by TAU; empty when a power of two overflows a double
                windows = []
                for i in act:
                    try:
                        if m == 0:
                            lo = 2.0 ** (i * params.eps) * float(h[i])
                            hi = 2.0 ** ((i + 1) * params.eps) * float(h[i])
                        else:
                            lo = 2.0 ** (-params.eps) * (2.0 ** g) * (2.0 ** (i * params.eps)) * float(h[i]) / z
                            hi = 2.0 ** params.eps * (2.0 ** g) * (2.0 ** ((i + 1) * params.eps)) * float(h[i]) / z
                    except OverflowError:
                        lo = hi = math.inf
                    windows.append((lo * (1 - TAU), hi * (1 + TAU)))
                # outcome -> number of hash functions: None for a reject,
                # else the checked sets of the active bands in order
                tally: dict = {}
                challenges.append((pr_k, members, wk, act, act_set, tally))
                by_width.setdefault(m, []).append(
                    (strat.produce_sets, s, k, g, act, act_set, windows, tally)
                )
        components.append((strat, h, challenges))
    for m, group in by_width.items():
        _flat_sweep(params.n, m, group, params.set_cap)
    for strat, h, challenges in components:
        for pr_k, members, wk, act, act_set, tally in challenges:
            for key, count in tally.items():
                pr_f = pr_k * count / size**3
                if key is None:
                    reject += pr_f
                    continue
                norm = dict(zip(act, key))
                for j in members:
                    if h[j] == 0:
                        continue
                    pr_j = pr_f * h[j] / wk
                    if j not in act_set or not norm[j]:
                        reject += pr_j
                        continue
                    for x in norm[j]:
                        p_msg = ask(strat.produce_probability, j, x)
                        pv = _flat_final(j, p_msg, params)
                        _accumulate(outputs, (x, j, pv), pr_j / len(norm[j]))
    return outputs, reject


def _flat_sweep(n, m, group, set_cap):
    """Walk the width-n family once at hash width m, ask each row of
    ``group`` (a challenge of some component, with that component's
    ``produce_sets``) about every member, and tally the checked outcomes in
    each row's tally. The walk takes (a, b) in family order; per (a, b) it
    asks each row in turn, rows in group order, about the members of one
    zero set at a time: c = t, t + 2**m, ... for t = 0 .. 2**m - 1 (at
    m = 0, every c in order). Each (row, member) pair is asked once.

    The checks are a pure function of the answer, the zero set and the
    challenge's constants. So each answer is snapshotted when it is
    returned, by ``marshal.dumps(answer, 2)``: marshal records the exact
    type of every part (1, True and 1.0 differ), refuses anything not built
    from exact builtin types, and at version 2 writes no back-references, so
    equal bytes mean the same answer down to its types. Each row keeps one
    map for the whole walk: zero set -> snapshot -> count. The zero sets of
    one (a, b) come from scalar ``eval``: c only flips the low m output
    bits, so f(x) = 0 exactly when the c = 0 member maps x to c & low, one
    zero set per c & low (at m = 0, the whole domain for every member).
    Within one block (a row and one zero set's members), an answer whose
    snapshot equals the block's previous trusted one extends a run, and
    the map is updated once per run, not once per ask; marshal's bytes
    code is looked for only when the snapshot changes. Each distinct (row,
    zero set, snapshot) is loaded back and checked in full
    (``_flat_outcome``) once, after the walk. Marshal writes any buffer
    object (a bytearray, a memoryview, an array) as plain bytes, under type
    code ``s``, so a snapshot holding that byte anywhere (``MARSHAL_BYTES``)
    is not trusted. Such an answer, and one marshal refuses (an int
    subclass, a non-dict mapping, an iterator, a self-referential list), is
    read and checked at once, on its own, and ends the run before it.

    Memory: a row keeps at most one count per distinct (zero set, answer),
    and never more than one per ask: 8**n per row, for every row of the
    walk at once. A prover whose every answer differs keeps them all, about
    4 MB per row at n = 5. Such a prover (the honest sets plus a band -1
    listing (a, b, c)) peaked at 37.7 MB RSS with four m = 0 rows and at
    32.8 MB with one m = 0 and three m = 1 rows (25.6 MB when the m > 0
    counts were dropped after each (a, b)); two such components, walked
    together at m = 0, peaked at 55.8 MB (37.7 MB one component at a
    time). The honest prover peaked at 21.7 MB (Python 3.11.7, x86-64)."""
    size = 1 << n
    low = (1 << m) - 1
    step = low + 1
    inputs = range(size)
    dumps = marshal.dumps
    # Every row keys its counts by the same zero sets, so the walk numbers
    # each distinct zero set once (``slots``) and a row keeps one snapshot
    # -> count dict per number: finding the dicts of an (a, b) costs 2**m
    # lookups, whatever the number of rows.
    slots: dict[frozenset, int] = {}
    counts = [[] for _ in group]  # per row, per zero set number: snapshot -> count
    zero_sets = [frozenset(inputs)]  # at m = 0 every input hashes to zero
    for a in range(size):
        for b in range(size):
            members = members_sharing_rows(n, m, a, b)
            if m:
                values = [members[0].eval(x) for x in inputs]
                zero_sets = [frozenset(x for x in inputs if values[x] == target) for target in range(step)]
            known = len(slots)
            numbers = [slots.setdefault(z, len(slots)) for z in zero_sets]
            if len(slots) > known:
                for seen_by_slot in counts:
                    seen_by_slot.extend({} for _ in range(len(slots) - known))
            for row, seen_by_slot in zip(group, counts):
                produce, s, k, g = row[:4]
                for t in range(step):
                    # one block: this row asked about the members of one zero set
                    seen = seen_by_slot[numbers[t]]
                    last, run = b"", 0  # b"" is no snapshot, so no answer joins it
                    for f in members[t::step]:
                        try:  # ``ask``, inline in this hot loop
                            answer = produce(s, k, f, g, m)
                        except Exception:
                            answer = None
                        try:
                            snapshot = dumps(answer, 2)
                        except ValueError:
                            snapshot = None
                        if snapshot == last:
                            run += 1
                            continue
                        if run:
                            seen[last] = seen.get(last, 0) + run
                        if snapshot is None or MARSHAL_BYTES in snapshot:
                            _, _, _, _, act, act_set, windows, tally = row
                            key = _flat_outcome(answer, act, act_set, windows, size, zero_sets[t], set_cap)
                            tally[key] = tally.get(key, 0) + 1
                            last, run = b"", 0
                        else:
                            last, run = snapshot, 1
                    if run:
                        seen[last] = seen.get(last, 0) + run
    for (_, _, _, _, act, act_set, windows, tally), seen_by_slot in zip(group, counts):
        for zeros, slot in slots.items():
            for snapshot, count in seen_by_slot[slot].items():
                key = _flat_outcome(marshal.loads(snapshot), act, act_set, windows, size, zeros, set_cap)
                tally[key] = tally.get(key, 0) + count


def _flat_outcome(answer, active, active_set, windows, size, zeros, set_cap):
    """The sets of the active bands in order, each sorted, when the answer
    as ``parse_sets`` records it is keyed by exactly the active bands and
    every check passes; else None. ``windows`` holds check (b)'s widened
    bounds per active band, elements are read as the verifier reads them
    (``exact_ints``) and must lie below ``size``, and check (a) asks that
    they all lie in ``zeros``, the hash function's zero set."""
    record = parse_sets(answer)
    if record is None or record.keys() != active_set:
        return None
    norm = []
    total = 0
    for i in active:
        xs = exact_ints(record[i])
        if xs is None:
            return None
        xs = sorted(xs)
        if xs and (xs[0] < 0 or xs[-1] >= size) or len(set(xs)) != len(xs):
            return None
        norm.append(tuple(xs))
        total += len(xs)
    if total > set_cap:
        return None
    for xs in norm:
        if not zeros.issuperset(xs):
            return None
    for xs, (lo, hi) in zip(norm, windows):
        if not lo <= len(xs) <= hi:
            return None
    if len(set().union(*norm)) != total:
        return None
    return tuple(norm)


def _flat_final(j, p_msg, params):
    # Inline band classification: scan every band for the one holding p,
    # then accept the claim only if that band is j.
    in_band = False
    p = exact_number(p_msg)
    if p is not None:
        p = Fraction(p)
        if 0 < p <= 1:
            lg = math.log2(p.numerator) - math.log2(p.denominator)
            for i in range(params.t + 1):
                if -(i + 1) * params.eps + TAU < lg <= -i * params.eps + TAU:
                    in_band = i == j
                    break
    if in_band:
        return p
    expo = j * params.eps
    if expo == int(expo):
        return Fraction(1, 2 ** int(expo))
    return 2.0 ** (-expo)


# ---------------------------------------------------------------------------
# Structural checks (per deterministic component)


@dataclass
class StructuralReport:
    checked: int
    violations: list
    indeterminate: list

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_band_sandwich(run: OracleRun) -> StructuralReport:
    """For every component, shift of positive weight, element x and band j:
    the conditional output mass of cell (x, j) lies within [2**(-2 eps),
    2**eps] times placement / (shift weight * 2**(j * eps)).

    Irrational factors enter through outward-rounded rational enclosures,
    so every reported violation is rigorous; comparisons falling inside an
    enclosure are reported as indeterminate rather than passed. A cell of
    placement 0 has all four bounds 0, so it passes exactly when its mass
    is 0. The walk therefore visits, in sorted order, only the cells with a
    placement or an output mass, and counts every other cell of the shift
    as checked; the enclosure of 2**(j * eps) is taken once, when a placed
    cell of band j first occurs. A rejecting or fallback component has no
    shift of positive weight, so it adds nothing to the report.
    """
    params = run.params
    eps = params.eps
    lo_factor = pow2_bounds(-2 * eps)
    hi_factor = pow2_bounds(eps)
    band_bounds: dict[int, tuple[Fraction, Fraction]] = {}
    zero = Fraction(0)
    violations = []
    indeterminate = []
    checked = 0
    for ci, comp in enumerate(run.components):
        for s, cond in comp.per_shift.items():
            placements = comp.shifts[s].placements
            w_s = comp.tables.shift_weights[s]
            mass_by_cell: dict[tuple[int, int], Fraction] = {}
            for (x, j, _p), massv in cond.items():
                mass_by_cell[x, j] = mass_by_cell.get((x, j), zero) + massv
            checked += (params.t + 1) << params.n
            for x, j in sorted(placements.keys() | mass_by_cell.keys()):
                mass = mass_by_cell.get((x, j), zero)
                r = placements.get((x, j), zero)
                if r == 0:
                    if mass != 0:
                        violations.append((ci, s, x, j, mass, zero, zero))
                    continue
                if j not in band_bounds:
                    band_bounds[j] = pow2_bounds(j * eps)
                band_lo, band_hi = band_bounds[j]
                low, high = r / (w_s * band_hi), r / (w_s * band_lo)
                lower_lo, lower_hi = lo_factor[0] * low, lo_factor[1] * high
                upper_lo, upper_hi = hi_factor[0] * low, hi_factor[1] * high
                if mass < lower_lo or mass > upper_hi:
                    violations.append((ci, s, x, j, mass, lower_lo, upper_hi))
                elif mass < lower_hi or mass > upper_lo:
                    indeterminate.append((ci, s, x, j, mass, lower_hi, upper_lo))
    return StructuralReport(checked=checked, violations=violations, indeterminate=indeterminate)


def verify_band_sums(run: OracleRun) -> StructuralReport:
    """For every component, shift, interval and element x: the placement
    probabilities of x over the bands of the interval sum to at most 1,
    exactly. Only the cells in each shift's placement table are summed, per
    (interval, x) in sorted order; every other (interval, x) sums to 0 and
    is counted as checked. A rejecting or fallback component has no shift
    tables, so it adds nothing to the report."""
    params = run.params
    violations = []
    checked = 0
    for ci, comp in enumerate(run.components):
        for s, st in comp.shifts.items():
            layout = params.layout  # read only here: a fallback run's t may be past MAX_BANDS
            checked += len(layout.index_range) << params.n
            totals: dict[tuple[int, int], Fraction] = {}
            for (x, j), r in st.placements.items():
                key = layout.interval_index_of(s, j), x
                totals[key] = totals.get(key, 0) + r
            for (k, x), total in sorted(totals.items()):
                if total > 1:
                    violations.append((ci, s, k, x, total))
    return StructuralReport(checked=checked, violations=violations, indeterminate=[])


# ---------------------------------------------------------------------------
# Soundness and completeness diagnostics (per deterministic component)


@dataclass
class ShiftSoundness:
    shift: int
    weight: Fraction
    cutoff: dict[int, Fraction]  # per element: top of the undervalued band
    large_edge: dict[int, Fraction]  # per element: bottom of the large band
    bad_probability: Fraction
    sums_above_cutoff: dict[int, Fraction]
    sums_medium: dict[int, Fraction]
    sums_large: dict[int, Fraction]
    bad_bound_ok: bool
    sum_bound_ok: bool


@dataclass
class SoundnessDiagnostics:
    per_shift: dict[int, ShiftSoundness]
    bad_probability: Fraction
    conditional_sums: dict[int, Fraction]


def soundness_diagnostics(run: OracleRun, component: int = 0) -> SoundnessDiagnostics:
    """Exact cutoffs, band memberships, bad-event mass, and mass/p sums.

    The cutoff for element x under shift s is its conditional output mass
    divided by 2**((gap_size/2 - 1) * eps); outputs at or below the cutoff
    form the bad event, outputs at or above the conditional mass times the
    same factor form the large band, and the rest the medium band. The
    per-shift flags compare against 16*eps/w(s) and (1+6*eps)/w(s); those
    are guarantees only in calibrated regimes, so outside them the flags
    are informational.
    """
    comp = run.components[component]
    params = run.params
    expo = (params.gap_size / 2 - 1) * params.eps
    div_lo, _div_hi = pow2_bounds(expo)
    divisor = div_lo  # deterministic choice; documented as the enclosure floor
    per_shift = {}
    bad_total = Fraction(0)
    above_weighted: dict[int, Fraction] = {}
    eps_f = Fraction(params.eps)
    for s, cond in comp.per_shift.items():
        w_s = comp.tables.shift_weights[s]
        s_prob = comp.shift_prob(s)
        marginal: dict[int, Fraction] = {}
        for (x, _j, _p), massv in cond.items():
            marginal[x] = marginal.get(x, Fraction(0)) + massv
        cutoff = {x: m / divisor for x, m in marginal.items()}
        large_edge = {x: m * divisor for x, m in marginal.items()}
        bad = Fraction(0)
        above: dict[int, Fraction] = {}
        medium: dict[int, Fraction] = {}
        large: dict[int, Fraction] = {}
        for (x, _j, p), massv in cond.items():
            pv = Fraction(p)
            if pv <= cutoff.get(x, Fraction(0)):
                bad += massv
                continue
            share = massv / pv
            above[x] = above.get(x, Fraction(0)) + share
            if pv >= large_edge.get(x, Fraction(0)):
                large[x] = large.get(x, Fraction(0)) + share
            else:
                medium[x] = medium.get(x, Fraction(0)) + share
        per_shift[s] = ShiftSoundness(
            shift=s, weight=w_s, cutoff=cutoff, large_edge=large_edge,
            bad_probability=bad, sums_above_cutoff=above,
            sums_medium=medium, sums_large=large,
            bad_bound_ok=bad <= 16 * eps_f / w_s,
            sum_bound_ok=all(v <= (1 + 6 * eps_f) / w_s for v in above.values()),
        )
        bad_total += s_prob * bad
        for x, v in above.items():
            above_weighted[x] = above_weighted.get(x, Fraction(0)) + s_prob * v
    not_bad = 1 - bad_total
    conditional = {
        x: (v / not_bad if not_bad > 0 else Fraction(0))
        for x, v in above_weighted.items()
    }
    return SoundnessDiagnostics(
        per_shift=per_shift, bad_probability=bad_total, conditional_sums=conditional,
    )


@dataclass
class CompletenessDiagnostics:
    covered: set[int]
    covered_mass: Fraction
    partition_ok: bool
    deviation_factors: dict[tuple[int, int], Fraction]
    in_band: bool
    wrong_probability_mass: Fraction


def completeness_diagnostics(run: OracleRun, dist) -> CompletenessDiagnostics:
    """Honest-prover masses versus the held distribution, per shift.

    The covered set unions the live buckets; per shift, the excluded set
    unions the buckets falling in gaps. Checks that the per-shift excluded
    regions partition the covered set and reports the factor between each
    covered element's conditional mass at its true probability and
    prob / shift weight (flagged against the 1 +- 132*eps window). A
    fallback run has no shifts to diagnose, and is refused as a rejecting
    prover is, before any per-band work: its t may exceed 10**9.
    """
    params = run.params
    if params.mode == MODE_TRIVIAL:
        raise ValueError("completeness diagnostics need a protocol run, not a fallback one")
    comp = run.components[0]
    if comp.reject_reason is not None:
        raise ValueError("completeness diagnostics need a non-rejecting prover")
    bucket_map = buckets(dist, params.eps, params.t)
    weights = build_histogram(dist, params.eps, params.t).weights
    live = compute_live_bands(weights, params)
    covered = {x for i in live for x in bucket_map.get(i, ())}
    covered_mass = sum((dist.prob(x) for x in covered), Fraction(0))
    layout = params.layout
    shift_members = {}
    for s in layout.shifts:
        bands = {j for ivs in layout.intervals[s] for j in ivs}
        shift_members[s] = {x for i in bands for x in bucket_map.get(i, ())}
    partition_ok = all(
        sum(1 for s in layout.shifts if x not in shift_members[s]) == 1 for x in covered
    )
    factors = {}
    wrong_mass = Fraction(0)
    eps_f = Fraction(params.eps)
    in_band = True
    for s, cond in comp.per_shift.items():
        w_s = comp.tables.shift_weights[s]
        by_xp: dict[tuple[int, Fraction], Fraction] = {}
        for (x, _j, p), massv in cond.items():
            if isinstance(p, Fraction) and p == dist.prob(x):
                by_xp[(x, p)] = by_xp.get((x, p), Fraction(0)) + massv
            else:
                wrong_mass += comp.shift_prob(s) * massv
        for x in covered & shift_members[s]:
            massv = by_xp.get((x, dist.prob(x)), Fraction(0))
            factor = massv * w_s / dist.prob(x)
            factors[(s, x)] = factor
            if not (1 - 132 * eps_f) <= factor <= (1 + 132 * eps_f):
                in_band = False
    return CompletenessDiagnostics(
        covered=covered, covered_mass=covered_mass, partition_ok=partition_ok,
        deviation_factors=factors, in_band=in_band, wrong_probability_mass=wrong_mass,
    )


# ---------------------------------------------------------------------------
# JSON report helpers


def distribution_report(exact: ExactDistribution) -> dict:
    def key_str(key: OutputKey) -> str:
        x, band, p = key
        return f"{x:x}|{band if band is not None else '-'}|{probability_bin_key(p)}"

    return {
        "params_digest": exact.params_digest,
        "outputs": {
            key_str(k): fraction_to_str(v)
            for k, v in sorted(exact.outputs.items(), key=lambda kv: key_str(kv[0]))
        },
        "reject": {k: fraction_to_str(v) for k, v in sorted(exact.reject_by_reason.items())},
        "total": fraction_to_str(exact.total_mass()),
    }
