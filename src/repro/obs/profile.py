"""Deterministic search profiler: where did the budget go?

Folds a trace — a live :class:`~repro.obs.tracer.RecordingTracer` or a
JSONL file — into a method → phase → move-kind attribution tree.  Every
event is charged to the frame stack that was open when it was emitted
(the method from the enclosing ``run_start``, the open ``phase_*``
names, and a leaf for the event kind), and the *logical clock delta*
since the previous event of the same stream becomes that frame's
self-units.  Per-worker streams are folded independently and merged
into one tree, so the profile of a ``workers=N`` trace is byte-identical
to the ``workers=1`` profile of the same seed — the merge the
orchestrator performs is already deterministic, and this fold is a pure
function of the event sequence.

Beside the tree, the fold keeps the run-level header: the first
``run_start`` payload (the run's own method, size, seed and budget —
later ones belong to restarts and components), event counts per kind,
the SA chain count with its mean acceptance, and the number of
best-cost updates.

Three output forms, all deterministic:

* :func:`profile_report` — a plain JSON-able dict (the schema below);
* :func:`profile_json` — that dict serialized canonically (sorted keys,
  fixed separators), byte-stable across runs and worker counts;
* :func:`collapsed_stacks` — one ``frame;frame;leaf units`` line per
  tree path, the folded-stack format standard flamegraph tooling eats.

The profiler itself never reads the wall clock (detlint DET002 holds
over this module).  Wall-clock attribution is opt-in: pass the sidecar
mapping recorded by :mod:`repro.obs.wallclock` — the one sanctioned
clock boundary — and each node gains a ``wall_s`` column.  Without a
sidecar the report contains no timing information at all.

Forward compatibility: event kinds outside the documented vocabulary
are attributed to an ``other`` leaf and counted under ``other`` in the
per-kind counts (and per unknown kind in the report header) instead of
crashing, so this reader can profile traces written by newer writers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.obs import events as ev
from repro.obs.events import TraceEvent

#: Leaf frame for event kinds outside :data:`repro.obs.events.EVENT_KINDS`.
OTHER_LEAF = "other"

#: Report schema version (bumped when the dict layout changes).
PROFILE_VERSION = 2

#: Event kinds that attribute to the open frame itself (no leaf): they
#: delimit frames rather than describe work inside one.
_STRUCTURAL_KINDS = frozenset(
    (ev.RUN_START, ev.RUN_END, ev.PHASE_START, ev.PHASE_END)
)


@dataclass
class ProfileNode:
    """One frame of the attribution tree (self-stats; children nested)."""

    name: str
    units: float = 0.0  # logical-clock units attributed to this frame
    events: int = 0  # events charged here
    improvement: float = 0.0  # total cost decrease over accepted moves
    moves: dict[str, int] = field(default_factory=dict)
    best_updates: int = 0
    wall_s: float | None = None  # only with a wallclock sidecar
    children: dict[str, "ProfileNode"] = field(default_factory=dict)

    def child(self, name: str) -> "ProfileNode":
        node = self.children.get(name)
        if node is None:
            node = ProfileNode(name)
            self.children[name] = node
        return node

    @property
    def n_moves(self) -> int:
        return sum(self.moves.values())

    def total_units(self) -> float:
        return self.units + sum(
            child.total_units() for child in self.children.values()
        )


@dataclass
class SearchProfile:
    """A folded trace: the tree plus the run-level header quantities."""

    root: ProfileNode
    n_events: int = 0
    clock_span: float = 0.0
    methods: tuple[str, ...] = ()
    workers: tuple[int, ...] = ()
    worker_units: dict[str, float] = field(default_factory=dict)
    evaluations: int | None = None  # from the outermost run_end
    final_cost: float | None = None
    unknown_kinds: dict[str, int] = field(default_factory=dict)
    has_wall: bool = False
    run: dict[str, Any] | None = None  # the first run_start payload
    kinds: dict[str, int] = field(default_factory=dict)  # unknown: "other"
    chains: int = 0
    acceptance_sum: float = 0.0
    best_updates: int = 0

    @property
    def mean_acceptance(self) -> float:
        return self.acceptance_sum / self.chains if self.chains else 0.0


@dataclass
class _Stream:
    """Per-worker fold state (the merge interleaves worker streams)."""

    methods: list[str] = field(default_factory=list)
    phases: list[str] = field(default_factory=list)
    last_clock: float | None = None
    last_wall: float | None = None


def _leaf_name(event: TraceEvent) -> str | None:
    """The leaf frame for one event (None: charge the open frame)."""
    if event.kind in _STRUCTURAL_KINDS:
        return None
    if event.kind == ev.MOVE:
        return f"move:{event.data.get('outcome', 'unknown')}"
    if event.kind in ev.EVENT_KINDS:
        return event.kind
    return OTHER_LEAF


def profile_events(
    events: Iterable[TraceEvent],
    wall: Mapping[int, float] | None = None,
) -> SearchProfile:
    """Fold a stream of events into a :class:`SearchProfile` (streaming).

    ``wall`` maps event ``seq`` to elapsed wall seconds (the sidecar
    :mod:`repro.obs.wallclock` records); events without an entry simply
    contribute no wall time.  The fold itself never reads a clock.
    """
    profile = SearchProfile(root=ProfileNode("run"))
    streams: dict[int | None, _Stream] = {}
    methods_seen: list[str] = []
    workers_seen: set[int] = set()
    for event in events:
        profile.n_events += 1
        if event.clock > profile.clock_span:
            profile.clock_span = event.clock
        stream = streams.get(event.worker)
        if stream is None:
            stream = _Stream(last_clock=event.clock)
            streams[event.worker] = stream
        if event.worker is not None:
            workers_seen.add(event.worker)
        delta = event.clock - (
            stream.last_clock if stream.last_clock is not None else event.clock
        )
        if delta < 0.0:  # defensive: merged streams are monotone per worker
            delta = 0.0
        stream.last_clock = event.clock

        if event.kind == ev.RUN_START:
            if profile.run is None:
                profile.run = dict(event.data)
            method = str(event.data.get("method", "?"))
            stream.methods.append(method)
            if method not in methods_seen:
                methods_seen.append(method)
        elif event.kind == ev.RUN_END:
            cost = event.data.get("cost")
            evaluations = event.data.get("evaluations")
            profile.final_cost = float(cost) if cost is not None else None
            profile.evaluations = (
                int(evaluations) if evaluations is not None else None
            )
        if event.kind in ev.EVENT_KINDS:
            bucket = event.kind
        else:
            bucket = OTHER_LEAF
            profile.unknown_kinds[event.kind] = (
                profile.unknown_kinds.get(event.kind, 0) + 1
            )
        profile.kinds[bucket] = profile.kinds.get(bucket, 0) + 1

        frames = [stream.methods[-1] if stream.methods else "?"]
        frames.extend(stream.phases)
        leaf = _leaf_name(event)
        if leaf is not None:
            frames.append(leaf)
        node = profile.root
        for frame in frames:
            node = node.child(frame)
        node.units += delta
        node.events += 1
        worker_key = "main" if event.worker is None else str(event.worker)
        profile.worker_units[worker_key] = (
            profile.worker_units.get(worker_key, 0.0) + delta
        )
        if wall is not None:
            stamp = wall.get(event.seq)
            if stamp is not None:
                if stream.last_wall is not None:
                    wall_delta = stamp - stream.last_wall
                    if wall_delta > 0.0:
                        node.wall_s = (node.wall_s or 0.0) + wall_delta
                        profile.has_wall = True
                stream.last_wall = stamp

        if event.kind == ev.MOVE:
            outcome = str(event.data.get("outcome", "unknown"))
            node.moves[outcome] = node.moves.get(outcome, 0) + 1
            move_delta = event.data.get("delta")
            if move_delta is not None and float(move_delta) < 0.0:
                node.improvement += -float(move_delta)
        elif event.kind == ev.BEST:
            node.best_updates += 1
            profile.best_updates += 1
        elif event.kind == ev.CHAIN:
            profile.chains += 1
            profile.acceptance_sum += float(event.data.get("acceptance", 0.0))
        elif event.kind == ev.PHASE_START:
            stream.phases.append(str(event.data.get("phase", "?")))
        elif event.kind == ev.PHASE_END:
            name = str(event.data.get("phase", "?"))
            if name in stream.phases:
                while stream.phases and stream.phases.pop() != name:
                    pass
        elif event.kind == ev.RUN_END:
            if len(stream.methods) > 0:
                stream.methods.pop()
    profile.methods = tuple(methods_seen)
    profile.workers = tuple(sorted(workers_seen))
    return profile


def _node_report(node: ProfileNode) -> dict[str, Any]:
    accepted = node.moves.get(ev.ACCEPTED, 0)
    total_moves = node.n_moves
    report: dict[str, Any] = {
        "name": node.name,
        "units": node.units,
        "total_units": node.total_units(),
        "events": node.events,
        "evaluations": total_moves,
        "improvement": node.improvement,
        "moves": {key: node.moves[key] for key in sorted(node.moves)},
        "best_updates": node.best_updates,
    }
    if total_moves:
        report["acceptance"] = accepted / total_moves
    if node.wall_s is not None:
        report["wall_s"] = node.wall_s
    report["children"] = [
        _node_report(node.children[name]) for name in sorted(node.children)
    ]
    return report


def profile_report(profile: SearchProfile) -> dict[str, Any]:
    """The profile as a plain JSON-able dict (schema version 2)."""
    return {
        "profiler": "repro.obs.profile",
        "version": PROFILE_VERSION,
        "events": profile.n_events,
        "clock_span": profile.clock_span,
        "methods": list(profile.methods),
        "workers": list(profile.workers),
        "worker_units": {
            key: profile.worker_units[key]
            for key in sorted(profile.worker_units)
        },
        "evaluations": profile.evaluations,
        "final_cost": profile.final_cost,
        "unknown_kinds": {
            key: profile.unknown_kinds[key]
            for key in sorted(profile.unknown_kinds)
        },
        "run": profile.run,
        "kinds": {key: profile.kinds[key] for key in sorted(profile.kinds)},
        "chains": profile.chains,
        "mean_acceptance": profile.mean_acceptance,
        "best_updates": profile.best_updates,
        "tree": _node_report(profile.root),
    }


def profile_json(profile: SearchProfile) -> str:
    """The report serialized canonically: byte-stable for equal traces."""
    return (
        json.dumps(
            profile_report(profile),
            indent=2,
            sort_keys=True,
            separators=(",", ": "),
        )
        + "\n"
    )


def collapsed_stacks(report: Mapping[str, Any]) -> list[str]:
    """Folded-stack lines (``a;b;c units``) from a :func:`profile_report`.

    Works off the *report dict* (not the tree objects), so the collapsed
    output of a JSON report round-trips: parsing :func:`profile_json`
    and collapsing yields exactly these lines.  Values are self-units
    rounded to integers (the format flamegraph tools expect); frames
    with zero rounded self-units are omitted, as is conventional.
    """
    lines: list[str] = []

    def walk(node: Mapping[str, Any], prefix: list[str]) -> None:
        path = prefix + [str(node.get("name", "?"))]
        units = int(round(float(node.get("units", 0.0))))
        if units > 0 and len(path) > 1:  # skip the synthetic root frame
            lines.append(";".join(path[1:]) + f" {units}")
        for child in node.get("children", []):
            walk(child, path)

    walk(report.get("tree", {}), [])
    return sorted(lines)


def render_profile(profile: SearchProfile) -> str:
    """The human-readable attribution tree, one frame per line."""
    report = profile_report(profile)
    lines: list[str] = []
    methods = ", ".join(report["methods"]) or "?"
    lines.append(
        f"profile: {report['events']} events  "
        f"clock span: {report['clock_span']:g} units  methods: {methods}"
    )
    if report["run"]:
        run = report["run"]
        described = ", ".join(f"{key}={run[key]}" for key in sorted(run))
        lines.append(f"run: {described}")
    if report["kinds"]:
        kinds = report["kinds"]
        ordered = [k for k in (*ev.EVENT_KINDS, OTHER_LEAF) if k in kinds]
        described = ", ".join(f"{kind} {kinds[kind]}" for kind in ordered)
        lines.append(f"by kind: {described}")
    if report["chains"]:
        lines.append(
            f"sa chains: {report['chains']}  "
            f"mean acceptance: {report['mean_acceptance']:.3f}"
        )
    if report["best_updates"]:
        lines.append(f"best-cost updates: {report['best_updates']}")
    if report["workers"]:
        indices = report["workers"]
        lines.append(
            f"workers merged: {len(indices)} "
            f"(indices {indices[0]}..{indices[-1]})"
        )
    if report["unknown_kinds"]:
        described = ", ".join(
            f"{kind} x{count}"
            for kind, count in report["unknown_kinds"].items()
        )
        lines.append(f"unknown event kinds (bucketed as other): {described}")
    header = f"{'frame':<44} {'units':>10} {'evals':>7} {'accept':>7} {'improve':>12}"
    if profile.has_wall:
        header += f" {'wall_s':>9}"
    lines.append(header)

    def walk(node: Mapping[str, Any], depth: int) -> None:
        if depth > 0:  # the synthetic root is the header line's job
            label = ("  " * (depth - 1)) + str(node["name"])
            acceptance = node.get("acceptance")
            accept = f"{acceptance:.1%}" if acceptance is not None else "-"
            row = (
                f"{label:<44} {node['units']:>10g} "
                f"{node['evaluations']:>7} {accept:>7} "
                f"{node['improvement']:>12.4g}"
            )
            if profile.has_wall:
                wall = node.get("wall_s")
                row += f" {wall:>9.4f}" if wall is not None else f" {'-':>9}"
            lines.append(row)
        for child in node["children"]:
            walk(child, depth + 1)

    walk(report["tree"], 0)
    if report["final_cost"] is not None:
        evals = (
            f"  evaluations: {report['evaluations']}"
            if report["evaluations"] is not None
            else ""
        )
        lines.append(f"final cost: {report['final_cost']:g}{evals}")
    return "\n".join(lines)
