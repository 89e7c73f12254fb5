"""BarterCast as the paper states it, written naively on purpose.

The oracle every hot path is checked against (``test_gossip_hot_path.py``,
``test_two_hop_closed_form.py``, ``test_reputation_cache.py``,
``test_bt_round_hot_path.py``, ``test_dissemination.py``,
``test_sim_engine.py`` and ``test_model.py``): a dict private history
whose selections are full sorts, sequential BuddyCast inserts, the
global-knowledge sampler the PSS ablation sets against BuddyCast, the
records a receiver admits, one record per (reporter, counterparty) whose
edges are found by scan, the paper's Algorithm 1 (Ford–Fulkerson,
exact and hop-bounded), the 2-hop closed form and the peers within two
hops by scan, Equation 2 as a plain mean, liveness as two sets, a
BitTorrent round that scans every member, a dissemination log whose analytics scan every row, and an
event queue that fires by scan.  Nothing here
imports the code it is the oracle for.
Wherever the system's output depends on an order, that order is spec and
is stated where it applies (DESIGN.md, "Reference model", lists them).
"""

from collections import Counter, namedtuple
from dataclasses import replace
from math import atan, isfinite, nan, pi
from numbers import Real

import numpy as np

from repro.bittorrent.roles import Role
from repro.core.messages import HistoryRecord
from repro.experiments.scenario import MB, ScenarioConfig
from repro.graph.maxflow import FlowPath
from repro.obs.provenance import ClaimLineage

#: The lineage-event counts, named as ``ProvenanceRecorder.summary()`` names them.
COUNTS = ("claims_recorded", "claims_superseded", "redeliveries_ignored", "stale_dropped",
          "claims_forgotten")


# --- Private history and the message selection ------------------------------

class History:
    """``peer -> [uploaded, downloaded, last_seen]``, in ledger order.  Both
    selections are stable sorts: ties on the key keep ledger order."""

    def __init__(self):
        self.ledger = {}

    def record(self, peer, up=0.0, down=0.0, now=0.0):
        totals = self.ledger.setdefault(peer, [0.0, 0.0, 0.0])
        totals[0] += float(up)
        totals[1] += float(down)
        totals[2] = max(totals[2], float(now))  # a running max from 0.0

    def top_uploaders(self, n):
        ranked = sorted(self.ledger, key=lambda p: (-self.ledger[p][1], repr(p)))
        return [p for p in ranked if self.ledger[p][1] > 0][: max(n, 0)]

    def most_recent(self, n):
        return sorted(self.ledger, key=lambda p: (-self.ledger[p][2], repr(p)))[: max(n, 0)]

    def select(self, n_highest, n_recent):
        """``(counterparty, uploaded, downloaded)`` of the union, top first."""
        chosen = self.top_uploaders(n_highest)
        chosen += [p for p in self.most_recent(n_recent) if p not in chosen]
        return [(p, *self.ledger[p][:2]) for p in chosen]


# --- BuddyCast view exchange -------------------------------------------------

def insert(view, view_size, owner, contact, freshness):
    """A view is an ordered dict: a refresh keeps its slot, a newcomer goes
    last, and eviction takes the first stalest entry other than it."""
    if contact == owner:
        return
    if contact in view:
        view[contact] = max(view[contact], freshness)
        return
    view[contact] = freshness
    if len(view) > view_size:
        del view[min((c for c in view if c != contact), key=view.get)]


def exchange(views, view_size, a, b, now):
    """Each side learns of the other at ``now``, then of its view as it stood."""
    snapshots = {a: list(views[b].items()), b: list(views[a].items())}
    for owner, partner in ((a, b), (b, a)):
        insert(views[owner], view_size, owner, partner, now)
        for contact, freshness in snapshots[owner]:
            insert(views[owner], view_size, owner, contact, freshness)


def live_contacts(view, owner, is_live):
    """What a peer samples from, drawn by position: its view's live
    contacts other than itself, in view order."""
    return [c for c in view if c != owner and is_live(c)]


class OraclePSS:
    """The ideal sampler: a uniform random live peer from everyone ever
    registered, in registration order.  It drops into a built simulator
    in place of ``sim.pss`` (same ``register`` / ``forget`` / ``tick`` /
    ``sample`` calls); it keeps no views, so ``tick`` and ``forget`` do
    nothing."""

    def __init__(self, is_online, rng):
        self._is_online = is_online
        self._rng = rng
        self._peers = []

    def register(self, peer, now=0.0):
        if peer not in self._peers:
            self._peers.append(peer)

    def forget(self, peer):
        pass

    def tick(self, peer, now):
        pass

    def sample(self, peer):
        live = [p for p in self._peers if p != peer and self._is_online(p)]
        return self._rng.choice(live) if live else None

    def view_of(self, peer):
        return [p for p in self._peers if p != peer]


# --- Shared history: max-supersede ingest ------------------------------------

def finite(v):
    """``float(v)`` for a real whose float value is finite, else ``None``
    (an int too large for a float has no float value)."""
    if not isinstance(v, Real):
        return None
    try:
        f = float(v)
    except OverflowError:
        return None
    return f if isfinite(f) else None


def hashable(v):
    """Whether ``v`` can be a dict key."""
    try:
        hash(v)
    except TypeError:
        return False
    return True


def is_total(v):
    """A byte total: a real whose float value is finite and non-negative."""
    f = finite(v)
    return f is not None and f >= 0


def sane_records(message):
    """The records a receiver admits, in message order: a
    :class:`HistoryRecord` whose counterparty is hashable and not the
    sender, and whose two totals pass :func:`is_total`."""
    def admitted(r):
        return (hashable(r.counterparty) and r.counterparty != message.sender
                and is_total(r.uploaded) and is_total(r.downloaded))

    return [r for r in message.records if isinstance(r, HistoryRecord) and admitted(r)]


class Store:
    """``(reporter, counterparty) -> [uploaded, downloaded, reported_at,
    up_lineage, down_lineage]``, a lineage being ``(msg_id, received_at,
    superseded)``.  An edge is ``max(claim, counter-claim)``, written upload
    edge first, in message order; a forget rewrites them in record order."""

    def __init__(self, owner, graph):
        self.owner, self.graph, self.records = owner, graph, {}
        self.messages_seen = self.records_applied = self.records_dropped = 0
        self.counts = dict.fromkeys(COUNTS, 0)

    def ingest(self, message, now=None):
        self.messages_seen += 1
        created, applied = message.created_at, 0
        # Only a finite real no later than the receipt is a timestamp: a
        # future one would make its sender's honest messages stale.  The
        # owner never gossips to itself: a message in its name is forged.
        if message.sender != self.owner and finite(created) is not None and (
                now is None or created <= now):
            msg_id = message.msg_id
            if msg_id is None:
                msg_id = (message.sender, created)
            lineage = (msg_id, float(created if now is None else now), 0)
            for record in sane_records(message):
                if record.counterparty != self.owner:
                    applied += self.apply(message.sender, record, float(created), lineage)
        self.records_applied += applied
        self.records_dropped += len(message.records) - applied
        return applied

    def apply(self, reporter, record, reported_at, lineage):
        """Whether ``record`` moved a total."""
        key = (reporter, record.counterparty)
        totals = (float(record.uploaded), float(record.downloaded))
        old = self.records.get(key)
        if old is None:
            self.records[key] = [*totals, reported_at, lineage, lineage]
            self.counts["claims_recorded"] += 2
            self.materialise(*key)
            return True
        if old[2] > reported_at:
            self.counts["stale_dropped"] += 2
            return False
        newer, old[2] = old[2] < reported_at, reported_at
        moved = False
        for i, value in enumerate(totals):
            # At a timestamp tie each direction keeps the larger value.
            if newer or value > old[i]:
                self.counts["claims_recorded"] += 1
                self.counts["claims_superseded"] += 1
                old[3 + i] = (*lineage[:2], old[3 + i][2] + 1)
                moved = moved or value != old[i]
                old[i] = value
            else:
                self.counts["redeliveries_ignored"] += 1
        if moved:
            self.materialise(*key)
        return moved

    def edge(self, src, dst):
        claims = [rec[0] for key, rec in self.records.items() if key == (src, dst)]
        claims += [rec[1] for key, rec in self.records.items() if key == (dst, src)]
        return max(claims, default=0.0)

    def materialise(self, reporter, c):
        self.graph.set_transfer(reporter, c, self.edge(reporter, c))
        self.graph.set_transfer(c, reporter, self.edge(c, reporter))

    def forget(self, reporter):
        """Returns the claims dropped: two per record, moved or not."""
        mine = [c for r, c in self.records if r == reporter]
        for c in mine:
            del self.records[(reporter, c)]
        for c in mine:
            self.materialise(reporter, c)
        self.counts["claims_forgotten"] += 2 * len(mine)
        return 2 * len(mine)

    def wipe(self):
        return sum(self.forget(r) for r in sorted(self.reporters(), key=repr))

    def reporters(self):
        return {r for r, _ in self.records}

    def lineage_of(self, src, dst):
        out = {}
        for reporter, key, i in ((src, (src, dst), 0), (dst, (dst, src), 1)):
            if key in self.records:
                rec = self.records[key]
                msg_id, received_at, superseded = rec[3 + i]
                out[reporter] = ClaimLineage(
                    reporter, msg_id, rec[i], rec[2], received_at, 1, superseded
                )
        return out


def claims(store):
    """``{(reporter, src, dst): value}``: every live claim a store holds,
    a :class:`Store` or the system's ``SubjectiveSharedHistory`` (read
    from its ``_reports``).  A reporter's record about ``c`` is two
    claims: its upload edge ``(reporter, c)`` and its download edge
    ``(c, reporter)``."""
    if isinstance(store, Store):
        rows = [(r, c, rec[0], rec[1]) for (r, c), rec in store.records.items()]
    else:
        rows = [(r, c, rec.uploaded, rec.downloaded)
                for r, mine in store._reports.items() for c, rec in mine.items()]
    out = {}
    for r, c, up, down in rows:
        out[r, r, c] = up
        out[r, c, r] = down
    return out


def claimed_edges(store):
    """The directed pairs at least one live claim is about."""
    return {(src, dst) for _, src, dst in claims(store)}


# --- Reputation: the 2-hop closed form, the arctan scale, rank and ban -------

def two_hop(graph, s, t):
    """``(value, paths)``: ``c(s,t) + Σ_v min(c(s,v), c(v,t))`` by scan,
    one :class:`FlowPath` per term.  Float addition is not associative: the
    direct edge comes first, then the intermediaries in the order of the
    smaller of ``successors(s)`` / ``predecessors(t)`` (``successors`` on a
    tie)."""
    out_s, in_t = graph.successors(s), graph.predecessors(t)
    value = out_s.get(t, 0.0)
    paths = [FlowPath((s, t), value, (s, t), (0.0,))] if value else []
    for v in out_s if len(out_s) <= len(in_t) else in_t:
        if v in out_s and v in in_t and v not in (s, t):
            c_sv, c_vt = out_s[v], in_t[v]
            f = min(c_sv, c_vt)
            value += f
            bottleneck = (s, v) if c_sv <= c_vt else (v, t)
            paths.append(FlowPath((s, v, t), f, bottleneck, (c_sv - f, c_vt - f)))
    return value, tuple(paths)


def reach(states, owner):
    """What a node's reach set holds after its graph has passed through
    ``states``, by scan of every edge of each: the owner's in- and
    out-neighbours, the predecessors of an in-neighbour and the
    successors of an out-neighbour, where a peer stays the owner's
    neighbour from the first state it is one (nothing ever leaves)."""
    ins, outs, seen = set(), set(), set()
    for graph in states:
        edges = [(s, d) for s, d, _ in graph.edges()]
        ins |= {s for s, d in edges if d == owner}
        outs |= {d for s, d in edges if s == owner}
        seen |= ins | outs
        seen |= {s for s, d in edges if d in ins} | {d for s, d in edges if s in outs}
    return seen


def two_hop_neighbourhood(graph, owner):
    """Every peer linked to ``owner`` by a path of at most two edges, in
    either direction: the peers whose 2-hop flows to or from the owner
    can be non-zero."""
    return reach([graph], owner)


def reputation(graph, i, j, unit=100 * MB):
    """Equation 1: ``arctan((maxflow(j, i) - maxflow(i, j)) / unit) / (π/2)``."""
    return atan((two_hop(graph, j, i)[0] - two_hop(graph, i, j)[0]) / unit) / (pi / 2)


def system_reputation(nodes, subjects, unit):
    """Equation 2: each subject's mean ``reputation`` at every other
    subject, summed over the evaluators in ``subjects`` order (0.0 for
    everyone with fewer than two subjects)."""
    if len(subjects) < 2:
        return dict.fromkeys(subjects, 0.0)
    return {t: sum((reputation(nodes[e].graph, e, t, unit) for e in subjects if e != t), 0.0)
            / (len(subjects) - 1) for t in subjects}


def rank(graph, i, peers):
    """Descending reputation; ties by ``repr``, then in the order given."""
    unique = [p for p in dict.fromkeys(peers) if p != i]
    return sorted(unique, key=lambda p: (-reputation(graph, i, p), repr(p)))


def ban(graph, i, peers, delta, unit=100 * MB):
    """The peers whose Equation 1 score is at least ``delta``, in the
    order given: a tie at ``delta`` is allowed."""
    return [p for p in peers if reputation(graph, i, p, unit) >= delta]


# --- The paper's Algorithm 1: Ford–Fulkerson, exact and hop-bounded ----------

#: A maxflow: its value and the net flow ``{(i, j): f > 0}`` per edge.
Flow = namedtuple("Flow", "value flows")


def ford_fulkerson(graph, source, sink, *, eps=1e-9):
    """Exact maximum flow: the paper's Algorithm 1, Ford–Fulkerson with a
    depth-first augmenting-path search on the residual network.  ``eps``
    is the least residual capacity an edge needs to be traversed."""
    return _run_ford_fulkerson(graph, source, sink, None, eps)


def bounded_ford_fulkerson(graph, source, sink, *, max_hops=2, eps=1e-9):
    """Maximum flow over augmenting paths of at most ``max_hops`` edges.
    Exact for ``max_hops <= 2``, where it is what the closed form
    computes; greedy for longer bounds (length-bounded maxflow is NP-hard
    in general)."""
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    return _run_ford_fulkerson(graph, source, sink, max_hops, eps)


class _Residual:
    """Residual capacities ``r[i][j]``, from the edge weights; pushing
    ``f`` on ``(i, j)`` takes it from ``r[i][j]`` and gives it to
    ``r[j][i]`` (lines 8–9 of Algorithm 1)."""

    def __init__(self, graph):
        self.r = {}
        for i, j, w in graph.edges():
            self.r.setdefault(i, {})[j] = self.r.get(i, {}).get(j, 0.0) + w
            self.r.setdefault(j, {}).setdefault(i, 0.0)

    def push(self, path, amount):
        for a, b in zip(path, path[1:]):
            self.r[a][b] -= amount
            self.r[b][a] = self.r[b].get(a, 0.0) + amount

    def bottleneck(self, path):
        return min(self.r[a][b] for a, b in zip(path, path[1:]))

    def find_path(self, source, sink, max_hops, eps):
        """An augmenting path with residual > ``eps`` and at most
        ``max_hops`` edges (``None``: any length), by iterative DFS."""
        if source not in self.r:
            return None
        stack = [(source, [source])]
        visited = {source}
        while stack:
            node, path = stack.pop()
            if max_hops is not None and len(path) - 1 >= max_hops:
                continue
            for nbr, cap in self.r.get(node, {}).items():
                if cap <= eps or nbr in visited:
                    continue
                if nbr == sink:
                    return path + [nbr]
                visited.add(nbr)
                stack.append((nbr, path + [nbr]))
        return None


def _run_ford_fulkerson(graph, source, sink, max_hops, eps):
    if source == sink:
        raise ValueError("source and sink must differ")
    if not graph.has_node(source) or not graph.has_node(sink):
        return Flow(0.0, {})
    residual = _Residual(graph)
    value, flows = 0.0, {}
    while (path := residual.find_path(source, sink, max_hops, eps)) is not None:
        amount = residual.bottleneck(path)
        residual.push(path, amount)
        for a, b in zip(path, path[1:]):
            # Net flow: a push on (a, b) first cancels flow on (b, a).
            reverse = flows.pop((b, a), 0.0)
            if reverse > amount:
                flows[(b, a)] = reverse - amount
            elif amount > reverse:
                flows[(a, b)] = flows.get((a, b), 0.0) + amount - reverse
        value += amount
    return Flow(value, flows)


# --- The BitTorrent round: patch ``bt_round`` in for ``_round_body`` -------

def is_live(sim, peer):
    """A peer is online while one of its trace sessions runs and no churn
    outage holds it down: two sets, read at the call."""
    return peer in sim.online and (sim.churn is None or peer not in sim.churn.down)


def complete(member):
    return member.bitfield.is_complete


def candidates(swarm, uploader, is_online, can_connect):
    """Online leechers the uploader reaches, in ``members`` order; none
    while it holds no piece."""
    if not uploader.bitfield.num_have:
        return []
    up = uploader.peer_id
    return [p for p, m in swarm.members.items()
            if p != up and not complete(m) and is_online(p) and can_connect(up, p)]


def unchoke(sim, swarm, member):
    """Tit-for-tat regular slots plus the optimistic slot; the policy is
    asked once per call which candidates it allows."""
    peers = sim.trace.peers
    found = candidates(swarm, member, lambda p: is_live(sim, p),
                       lambda a, b: peers[a].connectable or peers[b].connectable)
    if not found:
        member.optimistic_peer = None
        return set()
    pid, rng, config = member.peer_id, sim._choke_rng, sim.config
    policy = sim._origin_policy if sim.roles.role_of(pid) == Role.ORIGIN else sim.policy
    node = sim.nodes[pid]
    allowed = policy.allowed(node, found)
    node.choke_calls += 1
    node.choke_banned += len(found) - len(allowed)
    rate = member.sent_last_round if complete(member) else member.received_last_round
    ranked = sorted(rng.shuffled(allowed), key=lambda p: -rate.get(p, 0.0))
    regular = set(ranked[: config.regular_slots])
    due = sim.round_idx - member.optimistic_chosen_round >= config.optimistic_every_rounds
    current = member.optimistic_peer
    if due or current not in allowed or current in regular:
        rest = [p for p in allowed if p not in regular]
        ordered = policy.order_optimistic(node, rest, rng)
        member.optimistic_peer = ordered[0] if ordered else None
        if due or current not in regular:  # a promotion alone keeps the clock
            member.optimistic_chosen_round = sim.round_idx
    if member.optimistic_peer is not None:
        regular.add(member.optimistic_peer)
    return regular


def collect_links(sim):
    """``(up, down, swarm)`` for every unchoke; a lone member keeps its
    optimistic target."""
    links = []
    for swarm in sim.swarms.values():
        if len(swarm.members) > 1:
            for pid, member in swarm.members.items():
                if is_live(sim, pid):
                    links += [(pid, target, swarm) for target in unchoke(sim, swarm, member)]
    return links


def allocate(sim, links, dt):
    """An uplink splits equally over its links; a downlink caps its intake,
    the bytes offered to it summed in link order."""
    peers = sim.trace.peers
    n_links = Counter(up for up, _, _ in links)
    offered = [(up, down, sw, peers[up].uplink_bps * dt / n_links[up]) for up, down, sw in links]
    incoming = {}
    for _, down, _, nbytes in offered:
        incoming[down] = incoming.get(down, 0.0) + nbytes
    cap = {d: min(1.0, peers[d].downlink_bps * dt / n) for d, n in incoming.items() if n > 0}
    return [(up, down, sw, nbytes * cap.get(down, 1.0)) for up, down, sw, nbytes in offered]


def rarest(availability, wanted, k):
    """The ``k`` wanted pieces with the fewest copies.  Which of several
    equally rare pieces make the cut is spec too, since every later round
    sees the pieces granted: the ones ``np.argpartition`` keeps."""
    idx = np.flatnonzero(wanted)
    return idx[np.argpartition(availability[idx], k - 1)[:k]] if idx.size > k else idx


def grant(swarm, member, pieces, now):
    have = member.bitfield.have
    new = [p for p in dict.fromkeys(pieces) if not have[p]]
    have[new] = True
    member.bitfield._num_have = int(have.sum())
    swarm.availability[new] += 1
    if member.completed_at is None and complete(member):
        member.completed_at = now
        swarm.completions += 1


def transfer(sim, swarm, up, down, budget, now):
    """Whole rarest-first pieces plus a carried partial one; every byte is
    accounted in both private histories and the statistics."""
    um, dm = swarm.members.get(up), swarm.members.get(down)
    if budget <= 0 or um is None or dm is None or complete(dm):
        return 0.0
    wanted = ~dm.bitfield.have if complete(um) else um.bitfield.have & ~dm.bitfield.have
    piece, carry = swarm.spec.piece_size, dm.carry.get(up, 0.0)
    actual = min(budget, int(wanted.sum()) * piece - carry)
    if not wanted.any() or actual <= 0:
        return 0.0
    n_pieces = int((carry + actual) // piece)
    dm.carry[up] = carry + actual - n_pieces * piece
    if n_pieces:
        grant(swarm, dm, rarest(swarm.availability, wanted, n_pieces), now)
    sim.nodes[up].record_upload(down, actual, now)
    sim.nodes[down].record_download(up, actual, now)
    stats = sim.stats  # one array cell per side, written per link
    bucket = min(max(int(now / stats.bucket_seconds), 0), stats.num_buckets - 1)
    stats.uploaded[stats.index[up], bucket] += actual
    stats.downloaded[stats.index[down], bucket] += actual
    return actual


def execute(sim, transfers, now):
    """Moves each link's bytes, in order; then every member's tit-for-tat
    rates are this round's.  Returns the completions."""
    received, sent, completed = {}, {}, []
    for up, down, swarm, budget in transfers:
        moved = transfer(sim, swarm, up, down, budget, now)
        if moved > 0:
            sim.transfers += 1
            sim.bytes_moved += moved
            sid = swarm.spec.swarm_id
            into = received.setdefault((sid, down), {})
            into[up] = into.get(up, 0.0) + moved
            out = sent.setdefault((sid, up), {})
            out[down] = out.get(down, 0.0) + moved
            if complete(swarm.members[down]):
                completed.append((swarm, down))
    for sid, swarm in sim.swarms.items():
        for pid, member in swarm.members.items():
            member.received_last_round = received.get((sid, pid), {})
            member.sent_last_round = sent.get((sid, pid), {})
    return completed


def bt_round(sim):
    """One rechoke period: a sharer leaves a swarm ``seed_time`` after
    completing it; every online member of a swarm of two or more unchokes
    and bytes move; online leechers accrue leech time; a lazy freerider
    leaves as soon as it completes."""
    now, dt = sim.engine.now, sim.config.round_interval
    sim.round_idx += 1
    for swarm in sim.swarms.values():
        for pid, m in list(swarm.members.items()):
            if complete(m) and sim.roles.role_of(pid) == Role.SHARER:
                if now >= m.completed_at + sim.config.seed_time:
                    swarm.leave(pid)
    completed = execute(sim, allocate(sim, collect_links(sim), dt), now)
    leeching = {p for swarm in sim.swarms.values() for p, m in swarm.members.items()
                if not complete(m) and is_live(sim, p)}
    for pid in leeching:
        sim.stats.record_leech_time(pid, dt, now)
    for swarm, pid in completed:
        if pid in swarm.members and sim.roles.role_of(pid) == Role.FREERIDER:
            swarm.leave(pid)


# --- Dissemination: one row per hook, every analytic by scan -------------------

DELIVERED = ("deliver", "gossip")  # a "gossip" row is a send plus its delivery


class Dissemination:
    """The recorder's spec.  Each hook appends ``(kind, t, msg_id, src, dst,
    detail)``; the first hook naming a message files it with the records a
    receiver applies, read then.  Claims, their messages, deliveries and
    survivors are found by scanning; claims sort by ``repr`` of reporter,
    then counterparty, and receivers come in population order."""

    def __init__(self, population, fractions=(0.5, 0.9), label="run"):
        self.population = sorted(population, key=repr)
        self.fractions, self.label = fractions, label
        self.messages, self.rows = {}, []

    def file(self, m):
        """A message is filed under its ``msg_id``; without one, or with
        one no dict can hold, under ``(sender, created_at)``, and under
        ``(sender, nan)`` if that cannot be hashed either.  A creation
        time that is not a finite real is kept as NaN, a hop count that
        is not a non-negative ``int`` as ``None``."""
        mid = m.msg_id if hashable(m.msg_id) else None
        if mid is None:
            mid = (m.sender, m.created_at) if hashable(m.created_at) else (m.sender, nan)
        if mid not in self.messages:
            triples = [(r.counterparty, float(r.uploaded), float(r.downloaded))
                       for r in sane_records(m)]
            created = finite(m.created_at)
            hops = m.hops if type(m.hops) is int and m.hops >= 0 else None
            self.messages[mid] = (m.sender, nan if created is None else created, hops, triples)
        return mid

    def row(self, kind, m, to, t, detail=None):
        self.rows.append((kind, float(t), self.file(m), m.sender, to, detail))

    def send(self, m, to, t):
        self.row("send", m, to, t)

    def gossip(self, m, to, t):
        self.row("gossip", m, to, t)

    def deliver(self, m, to, t, copy=0):
        self.row("deliver", m, to, t, {"copy": copy} if copy else None)

    def plan(self, m, to, t, times):
        self.file(m)
        if len(times) > 1:
            self.row("duplicate", m, to, t, {"copies": len(times)})
        for copy, at in enumerate(times):
            if at - t > 0:
                self.row("delay", m, to, t, {"copy": copy, "delay": at - t})

    def drop(self, m, to, t, cause, copy=0, delay=0.0):
        extra = {**({"copy": copy} if copy else {}), **({"delay": delay} if delay else {})}
        self.row("drop", m, to, t, {"cause": cause, **extra})

    def wipe(self, peer, t):
        self.rows.append(("wipe", float(t), None, None, peer, None))

    def claims(self):
        found = {(m[0], c) for m in self.messages.values() for c, _, _ in m[3]}
        return sorted(found, key=lambda claim: (repr(claim[0]), repr(claim[1])))

    def carriers(self, claim):
        return {mid for mid, m in self.messages.items()
                if any((m[0], c) == claim for c, _, _ in m[3])}

    def claim_stats(self):
        stats = []
        for claim in self.claims():
            mids, first, copies = self.carriers(claim), {}, 0
            for kind, t, mid, _, dst, _ in self.rows:
                if kind in DELIVERED and mid in mids and dst not in claim:
                    copies += 1
                    first.setdefault(dst, t)
            eligible = len([p for p in self.population if p not in claim])
            times = sorted(first.values())
            entry = {"claim": list(claim), "eligible": eligible, "reached": len(first),
                     "copies": copies, "first_t": times[0] if times else None}
            if first:
                entry["redundancy"] = copies / len(first)
            for frac in self.fractions:
                need = max(1, round(frac * eligible)) if eligible else 0
                entry[f"t{round(frac * 100)}"] = times[need - 1] if 0 < need <= len(times) else None
            stats.append(entry)
        return stats

    def replay(self, p):
        """Newer ``created_at`` wins; a tie keeps the larger value; a wipe
        forgets everything."""
        state = {}
        for kind, _, mid, _, dst, _ in self.rows:
            if dst == p and kind == "wipe":
                state = {}
            elif dst == p and kind in DELIVERED and self.messages[mid][0] != p:
                reporter, created, _, triples = self.messages[mid]
                for c, up, down in triples:
                    for key, value in (((reporter, reporter, c), up), ((reporter, c, reporter), down)):
                        old = state.get(key)
                        if c != p and (old is None or created > old[0]
                                       or (created == old[0] and value > old[1])):
                            state[key] = (created, value)
        return {key: value for key, (_, value) in state.items()}

    def undelivered(self):
        out, views = [], {p: self.replay(p) for p in self.population}
        for claim in self.claims():
            mids = self.carriers(claim)
            for p in self.population:
                if p in claim or (claim[0], *claim) in views[p]:
                    continue
                mine = [row for row in self.rows if row[4] == p]
                ours = [row for row in mine if row[2] in mids]
                attempts = len([row for row in ours if row[0] in ("send", "gossip")])
                delivered = [row[1] for row in ours if row[0] in DELIVERED]
                if attempts:
                    out.append({
                        "claim": list(claim), "receiver": p, "attempts": attempts,
                        "cut_by": [f"{d['cause']}@t={t:g}" for kind, t, _, _, _, d in ours
                                   if kind == "drop"],
                        "wiped_by": [f"churn-wipe@t={t:g}" for kind, t, *_ in mine
                                     if kind == "wipe" and delivered and t >= min(delivered)],
                        "delivered_at": delivered,
                    })
        return out

    def summary(self):
        stats = self.claim_stats()
        events = Counter()
        for kind, _, _, _, _, detail in self.rows:
            events.update(("send", "deliver") if kind == "gossip" else (kind,))
            if kind == "drop" and detail["cause"]:
                events["drop." + detail["cause"]] += 1
        hops = Counter("invalid" if h is None else str(h)
                       for h in (self.messages[row[2]][2] for row in self.rows if row[0] in DELIVERED))
        out = {"label": self.label, "population": len(self.population),
               "messages": len(self.messages), "claims": len(stats),
               "claims_reached": len([s for s in stats if s["reached"]]),
               "events": dict(sorted(events.items())), "hop_histogram": dict(sorted(hops.items()))}
        if any(s["reached"] for s in stats):
            out["redundancy_factor"] = (sum(s["copies"] for s in stats)
                                        / sum(s["reached"] for s in stats))
        return out

    def to_dict(self):
        return {"schema": "bartercast-dissemination/v1", "label": self.label,
                "summary": self.summary(), "claims": self.claim_stats(),
                "undelivered": self.undelivered()}


# --- The event kernel: (time, insertion) order by scan ------------------------

def fire_order(roots):
    """``[(time, index)]`` of every event, in firing order, when ``roots``
    — ``[(time, children)]``, a child ``(delay, children)`` being scheduled
    ``delay`` after its parent fires — run until none is left.  Each
    schedule takes the next insertion index, and the next to fire is the
    pending event with the least ``(time, index)``."""
    pending = [(float(t), i, children) for i, (t, children) in enumerate(roots)]
    fired = []
    while pending:
        event = min(pending, key=lambda e: e[:2])
        pending.remove(event)
        time, _, children = event
        fired.append(event[:2])
        for delay, grandchildren in children:
            pending.append((time + delay, len(pending) + len(fired), grandchildren))
    return fired


def busy(seed):
    """``tiny`` with files large enough that downloads overlap, a 30 s round
    against a 90 s optimistic rotation and a seed window that expires
    within the day: the policies change who gets served."""
    base = ScenarioConfig.tiny(seed)
    trace = replace(base.trace_params, num_peers=20, swarms_per_peer_mean=1.8,
                    min_file_size=300 * MB, max_file_size=900 * MB)
    bt = replace(base.bt_config, round_interval=30.0, optimistic_interval=90.0, seed_time=7200.0)
    return replace(base, trace_params=trace, bt_config=bt)
