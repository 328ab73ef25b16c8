"""Project rules: call-graph summaries → findings.

Where :mod:`repro.analysis.rules` checks one module at a time, the rules
here consume the fixpoint summaries of :class:`~repro.analysis.callgraph.
CallGraph` and enforce *transitive* contracts:

* **PURE001** — declared-pure costing entrypoints (``plan_cost``,
  ``extend_state``) must be free of mutation, RNG, clock, IO, and
  blocking through every reachable callee;
* **DET005** — an ordered construct must not consume the result of a
  function that (transitively) returns an unordered iterable, the
  cross-function escape hatch DET003 cannot see;
* **RACE001** — no module-global mutation reachable from a function
  dispatched to a process pool (the direct ``global``-rebind case is
  DET004's; this rule owns in-place container mutation and everything
  reached through calls);
* **ASYNC001** — no blocking call reachable from an ``async def``;
* **EXC002** — public API functions with a declared exception contract
  must not propagate exception types outside it.

Every finding is anchored at a line in the flagged function's *own*
file — the direct effect, or the call edge that starts the chain — so a
suppression pragma lands where the contract lives, never in an innocent
transitive callee.  The full witness chain rides along in the message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.analysis.callgraph import CallGraph, Witness
from repro.analysis.config import DetlintConfig
from repro.analysis.dataflow import (
    BLOCKING,
    CLOCK,
    EFFECT_KINDS,
    GLOBAL_WRITE,
    IO,
    PARAM_MUTATION,
    RNG,
)
from repro.analysis.findings import Finding

#: How each effect kind reads in a finding message.
EFFECT_PHRASES: dict[str, str] = {
    RNG: "draws random numbers",
    CLOCK: "reads the wall clock",
    IO: "performs IO",
    BLOCKING: "may block",
    GLOBAL_WRITE: "writes module-level state",
    PARAM_MUTATION: "mutates an argument in place",
}


@dataclass
class ProjectRule:
    """Base class for rules that consume the resolved call graph.

    Unlike :class:`~repro.analysis.findings.Rule`, a project rule sees
    every analyzed module at once and does its own path scoping (the
    engine cannot pre-filter, because a finding's anchor file is only
    known once the rule picks it).
    """

    code: str = "PROJ000"
    name: str = "unnamed"
    description: str = ""
    default_options: dict = field(default_factory=dict)

    def check_project(
        self, graph: CallGraph, config: DetlintConfig
    ) -> Iterator[Finding]:
        raise NotImplementedError

    # -- helpers shared by the concrete rules ---------------------------

    def options(self, config: DetlintConfig) -> Mapping[str, Any]:
        return {**self.default_options, **config.options_for(self.code)}

    def finding_at(
        self, path: str, witness: Witness, message: str
    ) -> Finding:
        return Finding(
            rule=self.code,
            path=path,
            line=witness.line,
            column=0,
            message=message,
            snippet=witness.snippet,
        )

    @staticmethod
    def chain_note(chain: list[str]) -> str:
        if len(chain) <= 1:
            return ""
        return f" [call chain: {' -> '.join(chain)}]"


@dataclass
class DeclaredPureRule(ProjectRule):
    """PURE001: declared-pure costing entrypoints stay transitively pure.

    The differential invariants (incremental ≡ full, traced ≡ untraced)
    all assume that pricing a plan is a pure function of its inputs.
    Any hidden effect — an RNG draw, a clock read, a mutation of shared
    state — reachable from a pricing entrypoint makes
    "evaluate the same plan twice" a different experiment the second
    time, and no differential test can be trusted again.
    """

    code: str = "PURE001"
    name: str = "declared-pure"
    description: str = (
        "declared-pure costing entrypoints (plan_cost, extend_state) "
        "must be transitively free of mutation, RNG, clock, IO, and "
        "blocking effects"
    )
    default_options: dict = field(
        default_factory=lambda: {
            "entrypoints": ["extend_state", "plan_cost"]
        }
    )

    def check_project(
        self, graph: CallGraph, config: DetlintConfig
    ) -> Iterator[Finding]:
        entrypoints = set(self.options(config).get("entrypoints", []))
        for fid in sorted(graph.functions):
            node = graph.functions[fid]
            if node.facts.name not in entrypoints:
                continue
            if not config.rule_applies(self.code, node.rel_path):
                continue
            for kind in EFFECT_KINDS:
                witness = graph.summaries.get(fid, {}).get(kind)
                if witness is None:
                    continue
                chain = graph.effect_chain(fid, kind)
                yield self.finding_at(
                    node.rel_path,
                    witness,
                    f"declared-pure entrypoint {fid} transitively "
                    f"{EFFECT_PHRASES[kind]}: {witness.detail}"
                    + self.chain_note(chain),
                )


@dataclass
class CrossFunctionUnorderedRule(ProjectRule):
    """DET005: unordered iterables must not cross into ordered consumers.

    DET003 catches ``list({...})`` in one function; it cannot catch
    ``list(frontier_moves(state))`` where ``frontier_moves`` returns a
    set three calls away.  The summaries know which functions (possibly
    transitively, through ``return f(...)``) return unordered iterables;
    this rule joins them against every ordered-consumer call site.
    """

    code: str = "DET005"
    name: str = "cross-function-unordered"
    description: str = (
        "ordered construct (list/tuple/min/max/str.join, order-sensitive "
        "loop) consumes the result of a function that returns an "
        "unordered (hash-ordered) iterable"
    )

    def check_project(
        self, graph: CallGraph, config: DetlintConfig
    ) -> Iterator[Finding]:
        for fid in sorted(graph.functions):
            node = graph.functions[fid]
            if not config.rule_applies(self.code, node.rel_path):
                continue
            owner = graph.by_module_name[node.module]
            for site in node.facts.ordered_sites:
                targets = graph.resolve_ref(owner, site.ref)
                unordered = sorted(
                    target for target in targets if target in graph.unordered
                )
                if not unordered:
                    continue
                witness = Witness(
                    line=site.line, snippet=site.snippet, detail=site.consumer
                )
                yield self.finding_at(
                    node.rel_path,
                    witness,
                    f"{site.consumer} consumes the result of "
                    f"{unordered[0]}(), which returns an unordered "
                    "(hash-ordered) iterable; sort at this boundary or "
                    "have the callee return a sorted sequence",
                )


@dataclass
class PoolSharedStateRule(ProjectRule):
    """RACE001: pool workers must not reach module-global mutation.

    ``workers=N ≡ workers=1`` holds only if a worker's output is a pure
    function of its pickled arguments.  A worker that — anywhere down
    its call tree — mutates module state makes each job's result depend
    on which jobs previously ran in the same pool process, which varies
    with scheduling.  DET004 already rejects workers that rebind globals
    via ``global`` in their own body; this rule covers in-place container
    mutation and every write reached through calls.
    """

    code: str = "RACE001"
    name: str = "pool-shared-state"
    description: str = (
        "module-global mutation transitively reachable from a "
        "process-pool worker entrypoint"
    )

    def check_project(
        self, graph: CallGraph, config: DetlintConfig
    ) -> Iterator[Finding]:
        for rel_path, workers in sorted(graph.dispatch_roots().items()):
            if not config.rule_applies(self.code, rel_path):
                continue
            for fid in workers:
                node = graph.functions[fid]
                witness = graph.summaries.get(fid, {}).get(GLOBAL_WRITE)
                if witness is None:
                    continue
                if witness.via is None and "rebinds module global" in (
                    witness.detail
                ):
                    continue  # DET004's direct-rebind territory
                chain = graph.effect_chain(fid, GLOBAL_WRITE)
                yield self.finding_at(
                    node.rel_path,
                    witness,
                    f"pool worker {fid} transitively writes module-level "
                    f"state: {witness.detail}; worker output would depend "
                    "on prior jobs in the same pool process"
                    + self.chain_note(chain),
                )


@dataclass
class AsyncBlockingRule(ProjectRule):
    """ASYNC001: nothing reachable from ``async def`` may block.

    One synchronous ``time.sleep``/``subprocess.run``/``open`` anywhere
    under an ``async def`` stalls the whole event loop — every other
    coroutine in the service stops making progress for the duration.
    The planned optimizer service (ROADMAP item 1) will be judged on
    tail latency, where a single blocked loop shows up as a cliff.
    """

    code: str = "ASYNC001"
    name: str = "async-blocking"
    description: str = (
        "blocking call (sleep/subprocess/file/socket/submit().result()) "
        "transitively reachable from an async def"
    )

    def check_project(
        self, graph: CallGraph, config: DetlintConfig
    ) -> Iterator[Finding]:
        for fid in sorted(graph.functions):
            node = graph.functions[fid]
            if not node.facts.is_async:
                continue
            if not config.rule_applies(self.code, node.rel_path):
                continue
            witness = graph.summaries.get(fid, {}).get(BLOCKING)
            if witness is None:
                continue
            chain = graph.effect_chain(fid, BLOCKING)
            yield self.finding_at(
                node.rel_path,
                witness,
                f"async function {fid} may block the event loop: "
                f"{witness.detail}; await an async equivalent or move the "
                "call into a thread/process executor"
                + self.chain_note(chain),
            )


@dataclass
class ExceptionContractRule(ProjectRule):
    """EXC002: declared exception contracts are raises-*only* contracts.

    ``[tool.detlint.rules.EXC002.contracts]`` maps a public API function
    (by suffix of its fully-qualified id) to the exception names it is
    documented to raise.  The rule compares that contract against the
    *transitive* raise summary — every ``raise`` reachable through calls,
    minus everything caught on the way — so an undocumented failure mode
    added three layers down surfaces at the API boundary that promises
    otherwise.
    """

    code: str = "EXC002"
    name: str = "exception-contract"
    description: str = (
        "public core/cost API may only raise the exception types its "
        "declared contract table lists"
    )
    default_options: dict = field(default_factory=lambda: {"contracts": {}})

    def check_project(
        self, graph: CallGraph, config: DetlintConfig
    ) -> Iterator[Finding]:
        contracts: Mapping[str, Any] = self.options(config).get(
            "contracts", {}
        )
        for target in sorted(contracts):
            allowed = set(contracts[target])
            for fid in self._matching(graph, target):
                node = graph.functions[fid]
                if not config.rule_applies(self.code, node.rel_path):
                    continue
                for exc_name in sorted(graph.raise_summaries.get(fid, {})):
                    if exc_name in allowed:
                        continue
                    witness = graph.raise_summaries[fid][exc_name]
                    chain = graph.raise_chain(fid, exc_name)
                    declared = ", ".join(sorted(allowed)) or "nothing"
                    yield self.finding_at(
                        node.rel_path,
                        witness,
                        f"{fid} may raise {exc_name}, outside its declared "
                        f"contract (raises only: {declared}): "
                        f"{witness.detail}" + self.chain_note(chain),
                    )

    @staticmethod
    def _matching(graph: CallGraph, target: str) -> list[str]:
        return sorted(
            fid
            for fid in graph.functions
            if fid == target or fid.endswith("." + target)
        )


#: Registry order is report order for equal locations.
PROJECT_RULES: tuple[ProjectRule, ...] = (
    DeclaredPureRule(),
    CrossFunctionUnorderedRule(),
    PoolSharedStateRule(),
    AsyncBlockingRule(),
    ExceptionContractRule(),
)


def project_rule_registry() -> dict[str, ProjectRule]:
    return {rule.code: rule for rule in PROJECT_RULES}
