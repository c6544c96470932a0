"""Finite-horizon simulators of staged order constructions.

Every construction here plays against adversary scripts: finite,
explicit, prefix-monotone enumeration streams.  Quantities measured over
oracle prefixes are exact rational sums over the finite prefix space the
scripts declare.  The constructions are the finite-injury priority
build, the recursive split orders of `gamma_build` with the bit-stream
descent `delta_extract`, and mirror doubling.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat

from .errors import ContractViolation, InstanceLoadError, InternalInvariant, RangeError
from .patterns import FiniteColoring, Pattern, StableColoring
from .perms import parse_naturals


# ---------------------------------------------------------------------------
# Adversary scripts


@dataclass(frozen=True)
class ScriptEvent:
    prefix: str
    stage: int
    elements: frozenset


class AdversaryScript:
    """A finite, prefix-monotone stand-in for a relativized enumeration
    operator.

    An event (prefix, stage, elements) contributes its elements to the
    enumeration of every oracle extending the prefix, at every stage from
    its own on; monotonicity in both stage and prefix therefore holds by
    construction.

    The events are indexed once, here: for each prefix, the first stage at
    which it enumerates each of its elements, kept element-sorted and
    stage-sorted, and the prefix's proper ancestors among the script's
    prefixes.  A query bisects each prefix's lists instead of scanning
    the events; `reach_stage` adds suffix minima on first use.
    """

    def __init__(self, ident, events):
        self.ident = ident
        evs = []
        for prefix, stage, elements in events:
            if not isinstance(prefix, str) or any(ch not in "01" for ch in prefix):
                raise ContractViolation(f"prefix {prefix!r} is not a bit string")
            if not _is_natural(stage):
                raise ContractViolation(f"stage {stage!r} is not a natural number")
            elems = list(elements)
            if not all(map(_is_natural, elems)):
                raise ContractViolation("enumerated elements are naturals")
            evs.append(ScriptEvent(prefix, stage, frozenset(elems)))
        self.events = tuple(sorted(evs, key=lambda e: (e.stage, e.prefix)))
        first: dict = {}  # prefix -> {element: first stage}, in stage order
        for ev in self.events:
            seen = first.setdefault(ev.prefix, {})
            for x in ev.elements:
                seen.setdefault(x, ev.stage)
        # prefix -> (elements ascending, their first stages,
        #            first stages ascending, their elements)
        self._index = {}
        for prefix, seen in first.items():
            by_element = sorted(seen.items())
            self._index[prefix] = (
                [x for x, _ in by_element], [t for _, t in by_element],
                list(seen.values()), list(seen),
            )
        self._ancestors = {
            p: [q for q in first if q != p and p.startswith(q)] for p in first
        }
        self.depth = max(map(len, first), default=0)  # the longest event prefix
        self._reach = None  # built by reach_stage

    def first_stages(self, prefix: str) -> zip:
        """(element, first stage) pairs of the events at exactly `prefix`,
        in stage order."""
        _, _, stages, elements = self._index.get(prefix, ((), (), (), ()))
        return zip(elements, stages)

    def enumerated(self, prefix: str, stage: int) -> set:
        """W^prefix[stage]: everything contributed by events at compatible
        prefixes up to the stage."""
        out: set = set()
        for q, (_, _, stages, elements) in self._index.items():
            if prefix.startswith(q):
                out.update(elements[: bisect_right(stages, stage)])
        return out

    def hitting_measure(self, stage: int, lo: int, hi: int) -> Fraction:
        """Exact measure of oracles whose enumeration by `stage` meets
        [lo, hi], as a union of cylinders over event prefixes of length
        at most `stage`."""
        return Fraction(self.hitting_weight(stage, lo, hi), 1 << self.depth)

    def hitting_weight(self, stage: int, lo: int, hi: int) -> int:
        """`hitting_measure` times 2**depth: the number of depth-long
        prefixes whose cylinders the hitting oracles fill."""
        hit = set()
        if lo <= hi:
            for p, (elements, firsts, _, _) in self._index.items():
                if len(p) <= stage:
                    i, j = bisect_left(elements, lo), bisect_right(elements, hi)
                    if i < j and min(firsts[i:j]) <= stage:
                        hit.add(p)
        top = self.depth
        return sum(1 << (top - len(p)) for p in hit if hit.isdisjoint(self._ancestors[p]))

    def reach_stage(self, lo: int, weight: int) -> int | None:
        """The least stage t with hitting_weight(t, lo, t) >= weight, a
        positive weight, or None when no stage reaches it.

        A prefix p hits [lo, t] by stage t from t = max(len(p), the least
        max(x, first stage of x) over its elements x >= lo) on, so the hit
        set, and with it the weight, only grows with t.  The prefixes join
        in that order, each adding its cylinder less those of the hit
        prefixes it covers, until the weight is reached.  The per-prefix
        suffix minima of max(x, first stage of x) over the element-sorted
        index are built on first use and cached.
        """
        if self._reach is None:
            self._reach = []
            for p, (elements, firsts, _, _) in self._index.items():
                least, low = [], float("inf")
                # a plain loop: map(max, ...) with accumulate(..., min) took 5x as long
                for x, t in zip(reversed(elements), reversed(firsts)):
                    if t < x:
                        t = x  # x lies in [lo, t] only from stage x on
                    if t < low:
                        low = t
                    least.append(low)
                least.reverse()
                self._reach.append((p, elements, least))
        starts = []
        for p, elements, least in self._reach:
            i = bisect_left(elements, lo)
            if i < len(elements):
                starts.append((max(len(p), least[i]), len(p), p))
        starts.sort()
        top, total = self.depth, 0
        minimal: set = set()  # the hit prefixes no other hit prefix covers
        for t, size, p in starts:
            if minimal:  # p may lie under a hit prefix or cover some
                if not minimal.isdisjoint(self._ancestors[p]):
                    continue
                covered = {q for q in minimal if q.startswith(p)}
                total -= sum(1 << (top - len(q)) for q in covered)
                minimal -= covered
            minimal.add(p)
            total += 1 << (top - size)
            if total >= weight:
                return t
        return None


def _is_natural(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def parse_script_file(text: str, path: str = "<script>") -> dict:
    """Script file format, one event per line:

        e <id> prefix <bits|-> stage <s> emit <n1,n2,...>

    Returns a mapping id -> AdversaryScript.  Malformed lines report
    their line number.
    """
    events: dict = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tok = line.split()
        if len(tok) != 8 or tok[0] != "e" or tok[2] != "prefix" or tok[4] != "stage" or tok[6] != "emit":
            raise InstanceLoadError(path, no, "expected: e <id> prefix <bits|-> stage <s> emit <csv>")
        ident = tok[1]
        prefix = "" if tok[3] == "-" else tok[3]
        if any(ch not in "01" for ch in prefix):
            raise InstanceLoadError(path, no, f"bad prefix {tok[3]!r}")
        try:
            stage, *elems = parse_naturals([tok[5], *filter(None, tok[7].split(","))])
        except ValueError:
            raise InstanceLoadError(path, no, "stage and elements must be ASCII-digit naturals")
        if not elems:
            raise InstanceLoadError(path, no, "emit must be non-empty")
        events.setdefault(ident, []).append((prefix, stage, elems))
    return {ident: AdversaryScript(ident, evs) for ident, evs in events.items()}


# ---------------------------------------------------------------------------
# Finite-injury priority construction


@dataclass
class RequirementState:
    pattern: Pattern
    script: AdversaryScript
    marker: int
    intervals: list = field(default_factory=list)  # list of (lo, hi) inclusive

    @property
    def length(self) -> int:
        return len(self.intervals)


@dataclass
class RequirementVerdict:
    index: int
    kind: str  # "realized" | "measure-bounded" | "starved"
    state_length: int
    final_measure: Fraction
    threshold: Fraction


@dataclass
class PriorityResult:
    horizon: int
    coloring: StableColoring
    table: FiniteColoring
    requirements: list
    verdicts: list
    log: list


def priority_build(requirements, horizon: int) -> PriorityResult:
    """Stagewise construction of a stable transitive coloring against
    scripted enumeration adversaries.

    Every element holds a limit commitment, initially 0; the pair (x, s)
    is colored with x's commitment as of stage s, before any stage-s
    bookkeeping runs, so stacked interval states keep their realization
    property on the boundary element.  A requirement acts when the exact
    measure of script prefixes enumerating something at or beyond its
    marker passes 1 - 1/(2|p|); acting stacks the interval from its marker
    to the stage, commits limits along its pattern, moves markers, and
    resets every lower-priority state.

    Only acting stages are visited.  For a fixed marker the measure at
    stage s of [marker, s] never falls as s grows, so a requirement that is
    not full is due from the least stage its script reaches the bar
    (`AdversaryScript.reach_stage`) until its marker moves.  The build
    jumps to the least due stage, where the first requirement due there
    acts, and recomputes the due stages of the actor and of every lower
    requirement, the only ones whose markers and states changed.  Each act
    re-reads the actor's measure with `hitting_weight` for the log, and an
    act below the bar is an InternalInvariant.
    """
    if horizon < 1:
        raise ContractViolation(f"horizon {horizon} must be >= 1")
    reqs = [
        RequirementState(p, script, marker=i)
        for i, (p, script) in enumerate(requirements)
    ]
    thresholds = [1 - Fraction(1, 2 * req.pattern.size) for req in reqs]
    # weight / 2**depth > 1 - 1/(2m)  iff  weight * 2m > (2m - 1) << depth
    bars = [(2 * req.pattern.size - 1) << req.script.depth for req in reqs]
    committed = 0  # bit x: x's commitment
    last_change = [0] * horizon
    rows = [0] * horizon  # the table's row masks
    log: list = []

    def due_stage(r: int) -> int:
        """r's next acting stage, the horizon when it is full or never
        acts: the least weight past the bar is bars[r] // 2m + 1."""
        req = reqs[r]
        m = req.pattern.size
        if req.length >= m:
            return horizon
        t = req.script.reach_stage(req.marker, bars[r] // (2 * m) + 1)
        return horizon if t is None else t

    due = [due_stage(r) for r in range(len(reqs))]
    filled = 0  # rows[:filled] are set
    while (s := min(due, default=horizon)) < horizon:
        # the pairs (x, y), filled <= y <= s: only x < y has committed yet
        rows[filled : s + 1] = repeat(committed, s + 1 - filled)
        filled = s + 1
        acting = due.index(s)
        req = reqs[acting]
        p = req.pattern
        weight = req.script.hitting_weight(s, req.marker, s)
        if weight * 2 * p.size <= bars[acting]:
            raise InternalInvariant(f"requirement {acting} acts at stage {s} below its attention bar")
        t = req.length
        lo, hi = req.marker, s
        req.intervals.append((lo, hi))
        for i, (a, b) in enumerate(req.intervals):
            c = p.color(i, t + 1) if t < p.size - 1 else 0
            for x in range(a, min(b, horizon - 1) + 1):
                if committed >> x & 1 != c:
                    if not c:  # x's run of 1s covered the pairs (x, y), last_change[x] < y <= s
                        rows[x] |= (2 << s) - (2 << last_change[x])
                    committed ^= 1 << x
                    last_change[x] = s
        req.marker = s + 1
        injured = []
        for j in range(acting + 1, len(reqs)):
            reqs[j].marker = s + 1 + (j - acting)
            if reqs[j].intervals:
                injured.append(j)
            reqs[j].intervals = []
        due[acting:] = map(due_stage, range(acting, len(reqs)))
        log.append(
            {
                "stage": s,
                "acted": acting,
                "interval": [lo, hi],
                "state_length": req.length,
                "injured": injured,
                "markers": [q.marker for q in reqs],
                "states": [list(q.intervals) for q in reqs],
                "measure": str(Fraction(weight, 1 << req.script.depth)),
            }
        )

    rows[filled:] = repeat(committed, horizon - filled)
    limits = [committed >> x & 1 for x in range(horizon)]
    for x in range(horizon):
        if limits[x]:  # a run of 1s still open at the horizon
            rows[x] |= (1 << horizon) - (2 << last_change[x])
    table = FiniteColoring._from_rows(horizon, rows)
    coloring = StableColoring.from_rows(horizon, rows, limits)

    verdicts = []
    final_stage = horizon - 1
    for r, (req, threshold) in enumerate(zip(reqs, thresholds)):
        measure = req.script.hitting_measure(final_stage, req.marker, final_stage)
        if req.length == req.pattern.size:
            kind = "realized"
        elif measure > threshold:
            kind = "starved"  # wanted attention at the horizon; truncation artifact
        else:
            kind = "measure-bounded"
        verdicts.append(
            RequirementVerdict(r, kind, req.length, measure, threshold)
        )
    return PriorityResult(horizon, coloring, table, reqs, verdicts, log)


def check_transversal_realization(table, intervals, p: Pattern) -> bool:
    """Every choice of one element per stacked interval realizes the
    pattern prefix of the state's length: for x in interval i, the bits of
    x's row mask over a later interval j all equal p(i, j)."""
    if len(intervals) > 1 and any(a < 0 or b >= table.size for a, b in intervals if a <= b):
        raise RangeError(f"intervals {intervals} reach beyond horizon {table.size}")
    rows = table.rows
    spans = [(2 << b) - (1 << a) if a <= b else 0 for a, b in intervals]
    for i, (a, b) in enumerate(intervals):
        for j in range(i + 1, len(intervals)):
            span = spans[j]
            want = span if p.color(i, j) else 0
            for x in range(a, b + 1):
                if rows[x] & span != want:
                    return False
    return True


def check_state_properties(result: PriorityResult) -> list:
    """Re-check the four state properties at every logged acting stage
    and at the horizon; returns a list of violation strings (empty when
    all hold)."""
    bad = []
    table = result.table
    for entry in result.log:
        states = entry["states"]
        markers = entry["markers"]
        for r, intervals in enumerate(states):
            p = result.requirements[r].pattern
            if not intervals:
                continue
            if not check_transversal_realization(table, intervals, p):
                bad.append(f"stage {entry['stage']} req {r}: transversal realization fails")
            for (a, b), (a2, b2) in zip(intervals, intervals[1:]):
                if a2 != b + 1:
                    bad.append(f"stage {entry['stage']} req {r}: gap between intervals")
            lo0 = intervals[0][0]
            hi_last = intervals[-1][1]
            for q in range(len(states)):
                if q == r:
                    continue
                if q < r and not markers[q] < lo0:
                    bad.append(f"stage {entry['stage']} req {r}: higher marker {q} not below state")
                if q > r and not markers[q] > hi_last:
                    bad.append(f"stage {entry['stage']} req {r}: lower marker {q} not above state")
    # interval-measure property at acting stages
    for entry in result.log:
        r = entry["acted"]
        req = result.requirements[r]
        threshold = 1 - Fraction(1, 2 * req.pattern.size)
        lo, hi = entry["interval"]
        if not req.script.hitting_measure(entry["stage"], lo, hi) > threshold:
            bad.append(f"stage {entry['stage']} req {r}: stacked interval measure below threshold")
    return bad


# ---------------------------------------------------------------------------
# Recursive split order builders


class GammaNode:
    """One level of the recursive split construction.

    The first 2**(e+1) ground elements are heads; the remainder splits by
    arrival residue into blocks, each built one level deeper.  At every
    stage exactly one block is disabled: arrivals landing in it never join
    the order.  A witnessed enumeration hit inside a later block moves the
    disabled index there.  Nodes built in the descending flavor also hold
    cut points: once an enumerated member exists below the current local
    stage, every future local stage starts a fresh top layer.

    A ground is a `range`: the root's is range(n), and block i of a node
    is ground[width + i::width].  Local index j >= width lies in block
    (j - width) % width, at local index (j - width) // width there.  A
    child is built on first use by `child` (`children` builds them all);
    one never asked for is exactly an eagerly built node in its initial
    state.
    """

    __slots__ = (
        "e", "dec", "path", "ground", "width", "slots",
        "disabled", "transitions", "cut_from",
    )

    def __init__(self, e, dec, path, ground: range):
        self.e = e
        self.dec = dec
        self.path = path
        self.ground = ground
        self.width = width = 2 << e
        # a wide node with no rest has no blocks
        self.slots = [None] * width if len(ground) > width else []
        self.disabled = 0
        self.transitions = []
        self.cut_from = None

    @property
    def is_leaf(self) -> bool:
        return not self.slots

    @property
    def children(self) -> list:
        return [self.child(i) for i in range(len(self.slots))]

    def child(self, i: int) -> "GammaNode":
        node = self.slots[i]
        if node is None:
            w = self.width
            node = self.slots[i] = GammaNode(self.e + 1, True, self.path + (i,),
                                             self.ground[w + i :: w])
        return node

    def block_of(self, x: int):
        """The block of ground element x, or None when x is a head."""
        g = self.ground
        j = (x - g.start) // g.step - self.width
        return None if j < 0 else j % self.width


@dataclass
class SimpleOrder:
    horizon: int
    keys: dict

    def less(self, x, y) -> bool:
        return self.keys[x] < self.keys[y]

    def ordered(self) -> list:
        """The keyed elements, least first."""
        return sorted(self.keys, key=self.keys.__getitem__)


@dataclass
class BuiltOrder(SimpleOrder):
    """A staged split order: its members, their comparator keys, and the
    provenance log that replays to the same order."""

    direction: str
    e0: int
    root: GammaNode
    log: list

    @property
    def members(self) -> list:
        """The placed elements, ascending: the key table fills in stage order."""
        return list(self.keys)


def chain_order(n: int) -> SimpleOrder:
    if n < 0:
        raise ContractViolation(f"chain size {n} must be >= 0")
    return SimpleOrder(n, {x: (x,) for x in range(n)})


def gamma_build(direction: str, e: int, n: int, scripts=None) -> BuiltOrder:
    """Build the split order on ground 0..n-1 with staged enumeration
    events driving the disable/re-enable protocol and the cut points.

    scripts maps a level index to an AdversaryScript queried at the empty
    prefix.  Stage s places element s: enumeration updates and protocol
    moves happen first, then the placement, so a stage's own arrival obeys
    the freshly moved disabled block.

    A node's cut or transition can fire at stage s only when a hit y in its
    ground becomes witnessed, at stage max(first stage enumerating y, y + 1),
    or when the node moved at stage s - 1, since the next candidate block
    may move it again.  A hit at level L lies in at most one node, the one
    with e == L on its root path, so the due map records each hit once,
    with its node and its witness stage, and each stage visits only its
    due nodes, in preorder; without scripts the protocol never runs.  A
    node keeps the sorted block indices of its witnessed member hits: its
    cut fires on the first of them, and a transition takes the first
    block past the disabled one.  Only the nodes a hit or a placement
    reaches are built.  A member's key is fixed when it is placed: a cut
    made at stage t <= s already holds then, and a later one counts the
    ground below t, which puts s in its level 0.
    """
    if direction not in ("inc", "dec"):
        raise ContractViolation("direction must be inc or dec")
    if e < 0 or n < 0:
        raise ContractViolation(f"e = {e} and n = {n} must be >= 0")
    scripts = scripts or {}
    root = GammaNode(e, direction == "dec", (), range(n))
    keys: dict = {}
    log: list = []

    due: dict[int, dict] = {}  # stage -> {node: its hits witnessed at that stage}
    for level, script in scripts.items():
        for y, t in script.first_stages(""):
            s = max(t, y + 1)
            if s >= n:
                continue
            node = root
            while node.e < level and (i := node.block_of(y)) is not None:
                node = node.child(i)
            if node.e == level:
                due.setdefault(s, {}).setdefault(node, []).append(y)

    witnessed: dict[GammaNode, list] = {}  # node -> blocks of its witnessed member hits
    for s in range(n):
        # protocol updates before the stage's arrival is placed
        if s in due:
            for node, hits in sorted(due.pop(s).items(), key=lambda item: item[0].path):
                fresh = [y for y in hits if y in keys]
                if fresh and node.dec and node.cut_from is None:
                    node.cut_from = bisect_left(node.ground, s)
                    log.append(
                        {"stage": s, "node": list(node.path), "event": "cut",
                         "local": node.cut_from}
                    )
                if node.is_leaf:
                    continue
                blocks = witnessed.setdefault(node, [])
                for y in fresh:
                    i = node.block_of(y)
                    if i is not None:
                        insort(blocks, i)
                i = bisect_right(blocks, node.disabled)
                if i < len(blocks):
                    new = blocks[i]
                    if node.transitions and node.transitions[-1][0] == s:
                        raise InternalInvariant("two disable transitions in one stage")
                    log.append(
                        {"stage": s, "node": list(node.path), "event": "transition",
                         "old": node.disabled, "new": new}
                    )
                    node.transitions.append((s, node.disabled, new))
                    node.disabled = new
                    due.setdefault(s + 1, {}).setdefault(node, [])

        # placement, reading s's key on the way down
        node, j = root, s
        key = []
        while True:
            w = node.width
            if node.dec:
                cut = node.cut_from
                key.append(0 if cut is None or j < cut else j - cut + 1)
            if j < w:
                key.append(2 * j)
                keys[s] = tuple(key)
                break
            j -= w
            i = j % w
            if i == node.disabled:
                log.append(
                    {"stage": s, "node": list(node.path), "event": "exclude",
                     "block": i}
                )
                break
            key.append(2 * i + 1)
            j //= w
            node = node.slots[i] or node.child(i)

    return BuiltOrder(n, keys, direction, e, root, log)


@dataclass
class DeltaResult:
    status: str  # "ok" | "dead_block"
    sequence: list
    flags: list
    bits_used: int


def delta_extract(direction: str, e: int, bits, built: BuiltOrder) -> DeltaResult:
    """Descend the built order choosing one block per level from the bit
    stream, whose entries must be the integers 0 and 1; the chosen head
    opens the sequence and the recursion continues inside the chosen
    block, filtered to members.

    Picking the block that ended up disabled at any level is the failure
    mode.  A sequence that comes back is verified increasing both for the
    built comparator and for the natural order.
    """
    if direction != built.direction or e != built.e0:
        raise ContractViolation("direction/index must match the built order")
    try:
        stream = bytes(list(bits))  # refuses floats, text and values beyond a byte
        bad = stream.translate(None, b"\0\1")
    except (TypeError, ValueError):
        bad = True
    if bad:
        raise ContractViolation("bit stream entries must be 0 or 1")
    keys, end = built.keys, len(stream)
    pos = 0
    seq: list = []
    node = built.root

    while True:
        width = node.e + 1
        if pos + width > end:
            flags = ["bit stream exhausted"]
            break
        j = 0
        for b in stream[pos : pos + width]:
            j = (j << 1) | b
        pos += width
        if not node.slots:
            # finite ground ran out: close the sequence with the remaining
            # heads; only a disabled pick counts as failure
            tail = [h for h in node.ground[j:] if h in keys]  # a leaf's ground is its heads
            flags = [] if tail else [f"leaf choice {j} beyond populated heads"]
            seq.extend(tail)
            break
        if j == node.disabled:
            return DeltaResult("dead_block", seq, [f"picked disabled block {j} at node {node.path}"], pos)
        head = node.ground[j]  # an inner node has all its heads
        if head in keys:
            seq.append(head)
        node = node.slots[j] or node.child(j)

    for a, b in zip(seq, seq[1:]):
        if not (a < b and keys[a] < keys[b]):
            raise InternalInvariant("extracted sequence is not doubly increasing")
    return DeltaResult("ok", seq, flags, pos)


# ---------------------------------------------------------------------------
# Mirror doubling


def mirror_double(source: SimpleOrder) -> SimpleOrder:
    """Two copies of a source order: 2x carries the copy of x, 2x + 1 the
    reversed copy above every even element.  If x ranks r of n in the
    source, 2x gets key (r,) and 2x + 1 the key (2n - 1 - r,)."""
    n = source.horizon
    keys = {}
    for r, x in enumerate(source.ordered()):
        keys[2 * x], keys[2 * x + 1] = (r,), (2 * n - 1 - r,)
    return SimpleOrder(2 * n, keys)
