"""Core skill graph: typed weighted edges, per-node statistics, topological levels.

The graph holds skill records connected by three edge kinds. ``prereq`` and
``enhance`` edges form the directed dependency subgraph, which is kept acyclic
at all times; ``co_occur`` edges are symmetric associations stored once under
canonical (min-id, max-id) endpoints and ignored by level computation. An edge
is that key mapped to its float weight in [0, 1]; ``set_weight`` changes one
stored weight and ``scale_weights`` multiplies all of them, each range-checked.

A level is a function of the skill's dependency parents, so every writer of
a skill's parents names that skill, and ``compute_levels``, the one leveling
routine, re-levels only the named skills whose stored level no longer fits
and those below them; a checkpoint that moves a few edges re-levels a few
skills, and a load whose stored levels fit re-levels none.

Concurrency: single writer, many readers. Mutations happen in one owning
context; concurrent readers should work on a ``snapshot()`` copy, safe to hand
to another thread. The snapshot is a structural copy: every map (the node,
edge, adjacency and category maps, the category id maps, the co-appearance
counters) is fresh, while the node records, edge keys, weights and each
node's adjacency tuples are shared. A stored value is never changed in
place: a write binds a new record, tuple or weight in its own graph's map
instead, so no write on either side can reach the other. Node records are
values by that rule alone (``SkillNode`` itself is writable, so a record can
be filled in before ``add_skill``); ``replace_skill`` is how a stored skill
changes. Readers write nothing, so any number of them may share one snapshot.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable, KeysView, Mapping
from dataclasses import dataclass, fields
from enum import Enum
from operator import attrgetter
from types import MappingProxyType

from .errors import (
    AlreadyInitialized,
    CycleDetected,
    CycleWouldForm,
    DuplicateEdge,
    DuplicateId,
    EmptyTitle,
    SuccessWithoutUse,
    UnknownEndpoint,
    UnknownSkill,
    WeightOutOfRange,
)

GENERAL_CATEGORY = "general"

# Structural priors used when edges are first laid down; co_occur discovery
# during evolution reuses the same co-occurrence weight.
COOCCUR_INIT_WEIGHT = 0.3
ENHANCE_INIT_WEIGHT = 0.2


class EdgeKind(str, Enum):
    PREREQ = "prereq"
    ENHANCE = "enhance"
    CO_OCCUR = "co_occur"


# the members as module globals, for the hot loops: on Python 3.10 and 3.11
# reading one off the class (EdgeKind.CO_OCCUR) costs 150-200 ns, a global
# about 12 ns
_PREREQ, _ENHANCE, _CO_OCCUR = EdgeKind.PREREQ, EdgeKind.ENHANCE, EdgeKind.CO_OCCUR
DEPENDENCY_KINDS = (_PREREQ, _ENHANCE)
_KIND_OF = {kind.value: kind for kind in EdgeKind}

# (src, dst, kind) with co_occur endpoints canonicalized
EdgeKey = tuple[str, str, EdgeKind]


@dataclass(slots=True)
class SkillNode:
    """One reusable skill plus its running usage statistics. Slotted: a node
    takes only the fields declared here."""

    skill_id: str
    title: str
    principle: str
    when_to_apply: str
    category: str = GENERAL_CATEGORY
    level: int = 0
    n_use: int = 0
    n_succ: int = 0
    created_step: int = 0
    deprecated: bool = False

    def success_rate(self) -> float:
        """Raw success ratio. Defined as 0.0 when the skill was never used."""
        if self.n_use == 0:
            return 0.0
        return self.n_succ / self.n_use

    def is_general(self) -> bool:
        return self.category == GENERAL_CATEGORY


# a skill's text fields, as ``init`` reads them and a teacher sees them
SKILL_TEXT_FIELDS = ("skill_id", "title", "principle", "when_to_apply", "category")
# a node's field values in declaration order, for positional copies and saves
node_values = attrgetter(*(f.name for f in fields(SkillNode)))


def edge_key(src: str, dst: str, kind: EdgeKind | str) -> EdgeKey:
    """Canonical storage key: co_occur endpoints ordered (min-id, max-id)."""
    checked = _KIND_OF.get(kind)
    if checked is None:
        raise ValueError(f"{kind!r} is not a valid EdgeKind")
    if checked is _CO_OCCUR and dst < src:
        src, dst = dst, src
    return (src, dst, checked)


@dataclass
class GraphHealth:
    """What ``SkillGraph.health`` counts, for the CSV row and ``skillnet stats``."""

    nodes: int
    active: int
    deprecated: int
    edges: dict[str, int]         # per kind value; every kind, zeros included
    levels: dict[int, int]        # nodes per level, deprecated ones included
    mean_success: float           # raw rate over live skills used at least once


def is_blank(text: object) -> bool:
    """The one rule for skill text, shared by ``add_skill`` and proposals:
    anything but a string with more than whitespace is blank."""
    return not isinstance(text, str) or not text.strip()


def pair_key(a: str, b: str) -> tuple[str, str]:
    """Canonical unordered pair of skill ids."""
    return (a, b) if a <= b else (b, a)


class SkillGraph:
    """Mutable skill graph with an active-level pointer and evolution counters.

    The active set {v : level(v) <= highest_active_level and not deprecated}
    is always derived, never stored.

    The adjacency is stored the way the retrieval walks read it. ``_out[v]``
    holds the keys one forward hop from ``v`` takes: its out-edges of every
    kind, plus every co_occur edge at ``v``, at either endpoint. ``_in[v]``
    holds the keys of the dependency (prereq, enhance) edges into ``v``. So a
    dependency key sits in ``_out[src]`` and ``_in[dst]``, and a co_occur key
    in ``_out`` of both endpoints. Each is a tuple of keys in insertion order.
    A write never changes a tuple: it binds a new one in place of the old, so
    ``snapshot()`` shares every tuple and copies only the two maps. Node
    records follow the same rule: ``replace_skill`` binds a changed copy,
    and no code writes a stored record's fields. The batch writers
    ``add_edges`` and ``remove_edges`` replace each touched node's tuple
    once, so a bulk write costs the degrees it touches, not their squares.
    ``_categories`` maps each category to its ids, kept by ``add_skill``,
    ``remove_node`` and ``replace_skill``, the one writer of a node's
    category after insert. Only ``_store``, ``add_edges``,
    ``remove_edges``, ``set_weight`` and ``scale_weights`` write ``_edges``
    (the last two values only), so the adjacency and the unleveled skills
    follow every edge change.

    Levels are repaired below what no longer fits. ``_unleveled`` holds the
    skills whose dependency parents changed since the last leveling: each
    writer of an ``_in`` tuple names the skill it belongs to there, and an
    empty set means the levels are fresh.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, SkillNode] = {}
        self._edges: dict[EdgeKey, float] = {}
        self._out: dict[str, tuple[EdgeKey, ...]] = {}
        self._in: dict[str, tuple[EdgeKey, ...]] = {}
        self._categories: dict[str, dict[str, None]] = {}
        self.highest_active_level: int = 0
        self.checkpoint_index: int = 0
        self.next_dynamic_id: int = 1
        # cumulative co-appearance counts of unordered pairs in successful
        # episodes, persisted with the snapshot
        self.co_counts: dict[tuple[str, str], int] = {}
        self._unleveled: set[str] = set()

    # ------------------------------------------------------------------
    # nodes

    def add_skill(self, node: SkillNode) -> str:
        """Insert a skill node, named as unleveled: its stored level is
        repaired at the next leveling.

        ``n_use``, ``n_succ`` and ``created_step`` must be exact ints (a bool
        is refused) and ``deprecated`` a bool.
        """
        if node.skill_id in self.nodes:
            raise DuplicateId(f"duplicate skill id {node.skill_id!r}")
        if is_blank(node.title):
            raise EmptyTitle(f"skill {node.skill_id!r} has an empty title")
        # exact types: a bool counter would be written as Python's True
        if not (type(node.n_use) is type(node.n_succ) is type(node.created_step) is int
                and type(node.deprecated) is bool):
            raise SuccessWithoutUse(
                f"skill {node.skill_id!r}: need int n_use, n_succ and created_step "
                f"and a bool deprecated, got n_use={node.n_use!r}, "
                f"n_succ={node.n_succ!r}, created_step={node.created_step!r}, "
                f"deprecated={node.deprecated!r}")
        if not 0 <= node.n_succ <= node.n_use:
            raise SuccessWithoutUse(
                f"skill {node.skill_id!r}: need 0 <= n_succ <= n_use, "
                f"got n_succ={node.n_succ}, n_use={node.n_use}")
        self.nodes[node.skill_id] = node
        self._out[node.skill_id] = self._in[node.skill_id] = ()
        self._categories.setdefault(node.category, {})[node.skill_id] = None
        self._unleveled.add(node.skill_id)
        return node.skill_id

    def replace_skill(self, skill_id: str, **changes: object) -> SkillNode:
        """Bind a new record for a skill: a copy of its record with the fields
        ``changes`` names set, returned. The one writer of a stored record's
        fields; the old record is never changed, so a snapshot or a save
        that holds it keeps it as it was. The id cannot change: a
        ``skill_id`` keyword is the TypeError of any repeated argument.
        Naming ``category`` also moves the skill to the end of that category
        in the index. The values are stored unchecked; ``add_skill`` and
        ``update_stats`` check theirs.
        """
        node = self.nodes.get(skill_id)
        if node is None:
            raise UnknownSkill(f"unknown skill id {skill_id!r}")
        new = SkillNode(*node_values(node))
        for name, value in changes.items():
            setattr(new, name, value)  # on the copy, before it is stored
        if "category" in changes:
            self._unlist(node)
            self._categories.setdefault(new.category, {})[skill_id] = None
        self.nodes[skill_id] = new
        return new

    def _unlist(self, node: SkillNode) -> None:
        """Take a skill out of the category index."""
        members = self._categories[node.category]
        del members[node.skill_id]
        if not members:
            del self._categories[node.category]

    def new_dynamic_id(self) -> str:
        """Allocate the next engine-owned id for an inserted skill."""
        while True:
            candidate = f"dyn_{self.next_dynamic_id:04d}"
            self.next_dynamic_id += 1
            if candidate not in self.nodes:
                return candidate

    def remove_node(self, skill_id: str, heir: str | None = None) -> SkillNode:
        """Hard-delete a node and every incident edge (merge/split internals).

        Its co-appearance counts go with it, in one pass over ``co_counts``.
        Given an ``heir`` (a merge survivor), each count is added to the heir's
        count with the same partner instead; a pair with the heir is dropped.
        An heir that is ``skill_id`` itself or not in the graph is an
        UnknownSkill, raised before anything changes. Levels need repair only
        when a dependency edge goes with the node (``remove_edges`` names the
        children).
        """
        if skill_id not in self.nodes:
            raise UnknownSkill(f"unknown skill id {skill_id!r}")
        if heir is not None and (heir == skill_id or heir not in self.nodes):
            raise UnknownSkill(f"heir {heir!r} is not another skill of the graph")
        self.remove_edges(self._out[skill_id] + self._in[skill_id])
        del self._out[skill_id]
        del self._in[skill_id]
        node = self.nodes.pop(skill_id)
        self._unlist(node)
        for pair in [pair for pair in self.co_counts if skill_id in pair]:
            count = self.co_counts.pop(pair)
            other = pair[1] if pair[0] == skill_id else pair[0]
            if heir is not None and other != heir:
                inherited = pair_key(heir, other)
                self.co_counts[inherited] = self.co_counts.get(inherited, 0) + count
        return node

    # ------------------------------------------------------------------
    # edges

    def add_edge(self, src: str, dst: str, kind: EdgeKind | str,
                 weight: float) -> EdgeKey:
        """Insert one typed edge and return its canonical key; re-adding an
        existing edge is a no-op that keeps the stored weight.

        Dependency edges are checked against the acyclicity invariant before
        insertion and rejected with CycleWouldForm. It keeps its own cycle
        search (``_reaches``) and store (``_store``) for speed (2 vCPU,
        Python 3.11.7): the 8k bench library's 24k calls took 189-224 ms on
        this path, 276 ms as one-row ``add_edges``, which also levels each
        edge a merge or split inherits at once, and 268-272 ms through a
        batch store.
        """
        key = self._checked_key(src, dst, kind, weight)
        if key in self._edges:
            return key
        if key[2] in DEPENDENCY_KINDS and self._reaches(dst, src):
            raise CycleWouldForm(f"({src} -> {dst}, {key[2].value})")
        self._store(key, weight)
        return key

    def add_edges(self, rows: Iterable[tuple[str, str, str, float]]) -> None:
        """Insert stored edges, given as (src, dst, kind value, weight), all
        or none, and bring levels up to date.

        Every row is checked as ``add_edge`` checks an edge, and keyed,
        before any is written; a key already stored, or given earlier in the
        batch, is a DuplicateEdge instead of a no-op. The first faulty row
        is named by ``_checked_key`` as a row-by-row insert would name it,
        and leaves every table and tuple untouched. The batch is then stored
        in one write, each touched tuple replaced once. In place of a cycle
        search per edge, the closing ``compute_levels`` raises CycleDetected
        for the batch, which is taken out again with the names it gave. That
        leveling keeps every named level that already fits, so a snapshot
        whose stored levels are right loads without a Kahn pass.
        """
        nodes, kind_of, co = self.nodes, _KIND_OF.get, _CO_OCCUR
        edges = self._edges
        batch: dict[EdgeKey, float] = {}
        for src, dst, value, weight in rows:
            kind = kind_of(value)
            # edge_key's canonical key, inline
            key = (dst, src, kind) if kind is co and dst < src else (src, dst, kind)
            # _checked_key's checks in its order, so none that raises comes
            # before the fault it would name
            if (kind is None or src not in nodes or dst not in nodes or src == dst
                    or not 0.0 <= weight <= 1.0 or key in edges or key in batch):
                self._checked_key(src, dst, value, weight)
                raise DuplicateEdge(f"duplicate edge {src} -> {dst} ({value})")
            batch[key] = float(weight)
        edges.update(batch)
        out, into = _by_node(batch)
        named = into.keys() - self._unleveled
        for v, added in out.items():
            self._out[v] += tuple(added)
        for v, added in into.items():
            self._in[v] += tuple(added)
        self._unleveled.update(named)
        try:
            self.compute_levels()
        except BaseException:
            self.remove_edges(batch)
            self._unleveled.difference_update(named)
            raise

    def _checked_key(self, src: str, dst: str, kind: EdgeKind | str,
                     weight: float) -> EdgeKey:
        """The canonical key of an edge to insert, after the checks both
        inserts make, in this order: kind, endpoints, self-loop, weight."""
        key = edge_key(src, dst, kind)
        for end in (src, dst):
            if end not in self.nodes:
                raise UnknownEndpoint(f"unknown endpoint {end!r} of {src} -> {dst}")
        if src == dst:
            raise CycleWouldForm(f"self-loop on {src!r}")
        if not 0.0 <= weight <= 1.0:
            raise WeightOutOfRange(f"weight {weight} outside [0, 1] for "
                                   f"{src} -> {dst} ({key[2].value})")
        return key

    def _store(self, key: EdgeKey, weight: float) -> None:
        """Add one checked new edge to the weights and the adjacency."""
        src, dst, kind = key
        self._edges[key] = float(weight)
        self._out[src] += (key,)
        if kind is _CO_OCCUR:
            self._out[dst] += (key,)
        else:
            self._in[dst] += (key,)
            self._unleveled.add(dst)

    def remove_edges(self, keys: Iterable[EdgeKey]) -> None:
        """Remove edges, each touched node's tuple rebuilt once; a key not
        stored, or already removed earlier in ``keys``, is skipped."""
        stored = [key for key in keys if self._edges.pop(key, None) is not None]
        out, into = _by_node(stored)
        for v, gone in out.items():
            self._out[v] = _without(self._out[v], gone)
        for v, gone in into.items():
            self._in[v] = _without(self._in[v], gone)
        self._unleveled.update(into)

    def weight(self, src: str, dst: str, kind: EdgeKind | str) -> float | None:
        """The stored weight of an edge, or None when there is none."""
        return self._edges.get(edge_key(src, dst, kind))

    def set_weight(self, key: EdgeKey, weight: float) -> None:
        """Change the weight of a stored edge: the only writer after insert."""
        if key not in self._edges:
            raise KeyError(key)
        if not 0.0 <= weight <= 1.0:
            raise WeightOutOfRange(f"weight {weight} outside [0, 1] for "
                                   f"{key[0]} -> {key[1]} ({key[2].value})")
        self._edges[key] = float(weight)

    def scale_weights(self, factor: float) -> None:
        """Multiply every stored weight by ``factor``, in one write. A factor
        outside [0, 1], NaN included, is a WeightOutOfRange before any weight
        moves; inside it every product stays in [0, 1]. Each weight is the
        float ``set_weight(key, weight * factor)`` would store."""
        if not 0.0 <= factor <= 1.0:
            raise WeightOutOfRange(f"scale factor {factor} outside [0, 1]")
        edges = self._edges
        # rebinds values only, so walking the keys while writing is safe
        edges.update(zip(edges, [weight * factor for weight in edges.values()]))

    def edges(self) -> Mapping[EdgeKey, float]:
        """Read-only live view of every edge key and its weight; keys sort
        by (src, dst, kind value), the snapshot order."""
        return MappingProxyType(self._edges)

    def has_any_edge(self, a: str, b: str) -> bool:
        """True if any edge of any kind connects a and b in either direction."""
        edges = self._edges
        return ((a, b, _PREREQ) in edges or (b, a, _PREREQ) in edges
                or (a, b, _ENHANCE) in edges or (b, a, _ENHANCE) in edges
                or (*pair_key(a, b), _CO_OCCUR) in edges)

    def _reaches(self, start: str, target: str) -> bool:
        """DFS over dependency edges: is target reachable from start?"""
        stack = [start]
        seen = {start}
        while stack:
            v = stack.pop()
            if v == target:
                return True
            for key in self._out[v]:
                if key[2] in DEPENDENCY_KINDS and key[1] not in seen:
                    seen.add(key[1])
                    stack.append(key[1])
        return False

    # ------------------------------------------------------------------
    # adjacency views (see the class docstring)

    def category_members(self, category: str) -> KeysView[str]:
        """Read-only view of the ids in a category, deprecated and locked
        skills included."""
        return self._categories.get(category, {}).keys()

    def dependency_parents(self, skill_id: str) -> tuple[EdgeKey, ...]:
        """The keys of the prereq and enhance edges into a skill, as the
        stored tuple."""
        return self._in[skill_id]

    def forward_neighbors(self, skill_id: str) -> tuple[EdgeKey, ...]:
        """The keys of the edges one forward hop takes from a skill, as the
        stored tuple: its out-edges and, since co_occur is walkable both
        ways, every co_occur edge at it. The neighbor is whichever endpoint
        is not ``skill_id``."""
        return self._out[skill_id]

    def adjacency(self) -> tuple[Mapping[str, tuple[EdgeKey, ...]],
                                 Mapping[str, tuple[EdgeKey, ...]]]:
        """Read-only live views of every skill's ``forward_neighbors`` and
        ``dependency_parents`` tuple, by id."""
        return MappingProxyType(self._out), MappingProxyType(self._in)

    def incident_edges(self, skill_id: str) -> set[EdgeKey]:
        return {*self._out.get(skill_id, ()), *self._in.get(skill_id, ())}

    def neighbors(self, skill_id: str) -> set[str]:
        """Adjacent non-deprecated skills over all kinds and both directions.

        ``_out`` and ``_in`` hold no key in common (that would be a
        self-loop), so they are walked one after the other; a key in ``_in``
        always ends at ``skill_id``.
        """
        nodes = self.nodes
        adjacent: set[str] = set()
        for src, dst, _ in self._out.get(skill_id, ()):
            other = dst if src == skill_id else src
            if not nodes[other].deprecated:
                adjacent.add(other)
        for src, _, _ in self._in.get(skill_id, ()):
            if not nodes[src].deprecated:
                adjacent.add(src)
        return adjacent

    # ------------------------------------------------------------------
    # levels and statistics

    def compute_levels(self) -> None:
        """Bring topological levels over the dependency subgraph up to date.

        level(v) = 0 for nodes without prereq/enhance parents, otherwise
        1 + max over dependency parents; co_occur edges are ignored. Only the
        region below what moved is re-leveled: the skills named in
        ``_unleveled`` (every skill, on a graph never leveled, since
        ``add_skill`` names each) still in the graph whose stored level does
        not fit, being no exact int 1 + the highest stored level of their
        dependency parents, or 0 with none (a bool does not fit, nor does a
        skill below a parent whose level is no int), and all they reach over
        dependency edges. A Kahn pass runs inside it on the stored levels of
        parents outside it, so a level written out of band with
        ``replace_skill(level=...)`` outside the region is not repaired. A
        cycle closed since the last leveling runs through a named skill, and
        unnamed skills fit since the last leveling: exact-int levels cannot
        climb all the way round it, so one of its skills, and so all of it,
        is in the region, and CycleDetected is raised before any record
        changes and with ``_unleveled`` as it was. A record is replaced only
        where its level changes or is no exact int.
        """
        # edge keys carry (src, dst, kind), so the pass never reads an edge
        nodes, outs, ins = self.nodes, self._out, self._in
        region: set[str] = set()
        for v in self._unleveled & nodes.keys():
            fit: int | None = 0
            for src, _, _ in ins[v]:
                parent = nodes[src].level
                if type(parent) is not int:
                    fit = None  # the parent does not fit, so v is below it
                    break
                if parent >= fit:
                    fit = parent + 1
            level = nodes[v].level
            if level != fit or type(level) is not int:
                region.add(v)
        stack = list(region)
        while stack:
            for _, dst, kind in outs[stack.pop()]:
                if kind is not _CO_OCCUR and dst not in region:
                    region.add(dst)
                    stack.append(dst)
        levels: dict[str, int] = {}
        waiting: dict[str, int] = {}  # parents inside the region not yet leveled
        ready = []
        for v in region:
            level = inside = 0
            for src, _, _ in ins[v]:
                if src in region:
                    inside += 1
                elif nodes[src].level >= level:
                    level = nodes[src].level + 1
            levels[v] = level
            if inside:
                waiting[v] = inside
            else:
                ready.append(v)
        for v in ready:  # grows as children become ready
            child_level = levels[v] + 1
            for _, dst, kind in outs[v]:
                if kind is not _CO_OCCUR:
                    if levels[dst] < child_level:
                        levels[dst] = child_level
                    waiting[dst] -= 1
                    if not waiting[dst]:
                        ready.append(dst)
        if len(ready) != len(region):
            raise CycleDetected("dependency subgraph is cyclic")
        for v, level in levels.items():
            old = nodes[v].level
            if old != level or type(old) is not int:
                self.replace_skill(v, level=level)
        self._unleveled = set()

    def ensure_levels(self) -> None:
        """Call ``compute_levels`` if a writer has named a skill whose
        dependency parents changed since the last leveling; a named skill
        whose level still fits costs only its check. A level written out of
        band with ``replace_skill(level=...)`` names nothing, so it is not
        repaired."""
        if self._unleveled:
            self.compute_levels()

    def update_stats(self, batch: list[tuple[str, int, int]]) -> None:
        """Fold a batch of (skill_id, uses, successes) counts into the statistics.

        A skill gains one use each time it is retrieved into a prompt and one
        success each time that rollout succeeds. A bool counts as 0 or 1, so
        ``(skill_id, True, succeeded)`` is one observation, and n such
        entries fold like one ``(skill_id, n, wins)``. Counts must be ints
        with 0 <= successes <= uses; the whole batch is validated before any
        counter moves, so a bad entry leaves the graph untouched. The batch
        is then summed per skill, and each skill it names gets one new record.
        """
        nodes = self.nodes
        for skill_id, uses, successes in batch:
            if skill_id not in nodes:
                raise UnknownSkill(f"unknown skill id {skill_id!r}")
            if not (isinstance(uses, int) and isinstance(successes, int)
                    and 0 <= successes <= uses):
                raise SuccessWithoutUse(
                    f"skill {skill_id!r}: need int counts 0 <= successes <= uses, "
                    f"got successes={successes!r}, uses={uses!r}")
        totals: dict[str, tuple[int, int]] = {}
        for skill_id, uses, successes in batch:
            n_use, n_succ = totals.get(skill_id) or (0, 0)
            totals[skill_id] = (n_use + uses, n_succ + successes)
        for skill_id, (uses, successes) in totals.items():
            node = nodes[skill_id]
            self.replace_skill(skill_id, n_use=node.n_use + uses,
                               n_succ=node.n_succ + successes)

    # ------------------------------------------------------------------
    # structural initialization and active set

    def init_edges(self) -> int:
        """Lay down structural prior edges over a freshly distilled node set.

        co_occur (w=0.3) between every pair of task-specific skills sharing a
        category, enhance (w=0.2) from each general skill to every
        task-specific skill, and no prereq edges at all, as one ``add_edges``
        batch, which also brings levels up to date. A node set with no
        qualifying pair is a valid no-op.
        """
        if self._edges:
            raise AlreadyInitialized("graph already has edges")
        generals = sorted(v for v, n in self.nodes.items() if n.is_general())
        specifics = sorted(v for v, n in self.nodes.items() if not n.is_general())
        category = {v: self.nodes[v].category for v in specifics}
        co_occur, enhance = EdgeKind.CO_OCCUR.value, EdgeKind.ENHANCE.value
        rows = [(a, b, co_occur, COOCCUR_INIT_WEIGHT)
                for i, a in enumerate(specifics) for b in specifics[i + 1:]
                if category[a] == category[b]]
        rows += [(g, s, enhance, ENHANCE_INIT_WEIGHT) for g in generals for s in specifics]
        self.add_edges(rows)
        return len(rows)

    def is_active(self, skill_id: str) -> bool:
        node = self.nodes.get(skill_id)
        return (node is not None and not node.deprecated
                and node.level <= self.highest_active_level)

    def active_ids(self) -> set[str]:
        self.ensure_levels()
        return {v for v in self.nodes if self.is_active(v)}

    def health(self) -> GraphHealth:
        self.ensure_levels()
        used = [n for n in self.nodes.values() if not n.deprecated and n.n_use > 0]
        return GraphHealth(
            nodes=len(self.nodes),
            active=len(self.active_ids()),
            deprecated=sum(n.deprecated for n in self.nodes.values()),
            edges=({kind.value: 0 for kind in EdgeKind}
                   | Counter(kind.value for _, _, kind in self._edges)),
            levels=Counter(n.level for n in self.nodes.values()),
            mean_success=(sum(n.success_rate() for n in used) / len(used)
                          if used else 0.0),
        )

    def max_level(self) -> int:
        if not self.nodes:
            return 0
        return max(n.level for n in self.nodes.values())

    # ------------------------------------------------------------------

    def snapshot(self) -> "SkillGraph":
        """Independent copy for concurrent readers, with fresh levels.

        Levels are brought up to date first, so no reader sharing a
        snapshot recomputes levels into it, and readers write nothing else.
        Copies every map and shares the values in them: node records, edge
        weights and each node's adjacency tuples, which a write on either
        side replaces rather than changes (see the module docstring). That
        costs a fraction of a deep copy and is just as isolated in both
        directions.
        """
        self.ensure_levels()
        clone = SkillGraph()
        clone.nodes = dict(self.nodes)
        clone._edges = dict(self._edges)
        clone._out = dict(self._out)
        clone._in = dict(self._in)
        clone._categories = {c: ids.copy() for c, ids in self._categories.items()}
        clone.highest_active_level = self.highest_active_level
        clone.checkpoint_index = self.checkpoint_index
        clone.next_dynamic_id = self.next_dynamic_id
        clone.co_counts = dict(self.co_counts)
        return clone

    def __repr__(self) -> str:
        return (f"SkillGraph(nodes={len(self.nodes)}, edges={len(self._edges)}, "
                f"L={self.highest_active_level}, checkpoint={self.checkpoint_index})")


def _by_node(keys: Iterable[EdgeKey]) -> tuple[dict[str, list[EdgeKey]],
                                               dict[str, list[EdgeKey]]]:
    """Edge keys grouped, in order, under the nodes whose ``_out`` and whose
    ``_in`` tuple holds them (see ``SkillGraph``)."""
    out: defaultdict[str, list[EdgeKey]] = defaultdict(list)
    into: defaultdict[str, list[EdgeKey]] = defaultdict(list)
    for key in keys:
        src, dst, kind = key
        out[src].append(key)
        if kind is _CO_OCCUR:
            out[dst].append(key)
        else:
            into[dst].append(key)
    return out, into


def _without(keys: tuple[EdgeKey, ...], gone: list[EdgeKey]) -> tuple[EdgeKey, ...]:
    """``keys`` in order, less ``gone``: distinct keys that ``keys`` holds."""
    if len(gone) == len(keys):
        return ()
    if len(gone) == 1:
        i = keys.index(gone[0])
        return keys[:i] + keys[i + 1:]
    dropped = set(gone)
    return tuple(key for key in keys if key not in dropped)
