"""ACL application: declarative rule lists with derived priorities.

The application supplies an ordered access-control list (first match
wins) for one switch; the app derives the overlap dependency DAG,
assigns OpenFlow priorities (topological by default -- the assignment
the paper's Figure 9 shows installing fastest on hardware), and emits an
install DAG whose dependencies guarantee no packet is ever matched by a
shadowed rule before its shadowing rule exists.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Sequence, Tuple

import networkx as nx

from repro.core.priorities import (
    assign_r_priorities,
    assign_topological_priorities,
)
from repro.core.requests import RequestDag, SwitchRequest
from repro.openflow.actions import Action, DropAction
from repro.openflow.match import Match
from repro.openflow.messages import FlowModCommand
from repro.workloads.dependencies import build_dependency_graph


class PriorityMode(enum.Enum):
    """How the app maps ACL order to OpenFlow priorities."""

    TOPOLOGICAL = "topological"  # minimal distinct values (fast installs)
    UNIQUE = "unique"  # one priority per rule (R priorities)


class AclApplication:
    """Installs an ordered ACL on one switch.

    Args:
        location: target switch name.
        priority_mode: topological (default) or unique priorities.
        priority_base: priority of the lowest level; pick it above any
            rules already installed so additions never shift them.
    """

    def __init__(
        self,
        location: str,
        priority_mode: PriorityMode = PriorityMode.TOPOLOGICAL,
        priority_base: int = 10_000,
        minimize: bool = False,
    ) -> None:
        self.location = location
        self.priority_mode = priority_mode
        self.priority_base = priority_base
        self.minimize = minimize

    def compile(
        self,
        rules: Sequence[Match],
        actions: Optional[Sequence[Tuple[Action, ...]]] = None,
        dag: Optional[RequestDag] = None,
    ) -> Tuple[RequestDag, Dict[int, SwitchRequest]]:
        """Build the install DAG for an ACL-ordered rule list.

        Args:
            rules: matches in ACL order (earlier wins on overlap).
            actions: per-rule action tuples (default: drop, the common
                ACL semantics; pass OutputAction tuples for permit rules).
            dag: DAG to append to (a new one if omitted).

        Returns:
            (dag, mapping of *original* rule index to its request; with
            ``minimize=True`` shadowed rules have no entry).
        """
        if actions is not None and len(actions) != len(rules):
            raise ValueError("need exactly one action tuple per rule")
        index_map = list(range(len(rules)))
        if self.minimize:
            from repro.apps.minimize import minimize_acl

            minimized = minimize_acl(rules)
            index_map = minimized.kept_indices
            rules = minimized.rules
            if actions is not None:
                actions = [actions[i] for i in index_map]
        dependencies = build_dependency_graph(rules)
        priorities = self._assign_priorities(dependencies)

        dag = dag if dag is not None else RequestDag()
        local_requests: Dict[int, SwitchRequest] = {}
        for index, rule in enumerate(rules):
            rule_actions = actions[index] if actions is not None else (DropAction(),)
            local_requests[index] = dag.new_request(
                location=self.location,
                command=FlowModCommand.ADD,
                match=rule,
                priority=priorities[index],
                actions=rule_actions,
            )
        # Shadowing rules install first: edge u -> v means u precedes v
        # in the ACL and overlaps it.
        for u, v in dependencies.edges():
            dag.add_dependency(local_requests[u], local_requests[v])
        requests = {
            index_map[local]: request for local, request in local_requests.items()
        }
        return dag, requests

    def _assign_priorities(self, dependencies: nx.DiGraph) -> Dict[int, int]:
        if self.priority_mode is PriorityMode.TOPOLOGICAL:
            return assign_topological_priorities(dependencies, base=self.priority_base)
        return assign_r_priorities(dependencies, base=self.priority_base)
