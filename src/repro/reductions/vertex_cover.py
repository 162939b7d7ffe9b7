"""Vertex cover in cubic graphs and the Theorem-7 APX-hardness reduction.

The reduction (Figure 5) shows the Secure-View problem with cardinality
constraints stays NP-hard (indeed APX-hard) even with **no data sharing**:

* one module ``x_uv`` per edge of the graph, with one incoming data item and
  one outgoing item to each endpoint's module,
* one module ``y_v`` per vertex, forwarding a single item to the collector
  ``z``,
* requirement lists ``L_uv = {(0, 1)}``, ``L_v = {(d_v, 0), (0, 1)}``,
  ``L_z = {(1, 0)}``, all attributes of unit cost.

Lemma 6: the graph has a vertex cover of size K iff the instance has a
secure view of cost ``|E| + K``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import networkx as nx

from ..core.attributes import Attribute, BOOLEAN
from ..core.module import Module
from ..core.requirements import (
    CardinalityRequirement,
    CardinalityRequirementList,
)
from ..core.secure_view import SecureViewProblem
from ..core.workflow import Workflow
from ..exceptions import InfeasibleError

__all__ = [
    "VertexCoverInstance",
    "random_cubic_graph",
    "greedy_vertex_cover",
    "exact_vertex_cover",
    "vertex_cover_to_secure_view",
]


@dataclass(frozen=True)
class VertexCoverInstance:
    """An undirected graph whose minimum vertex cover we want."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        vertex_set = set(self.vertices)
        for u, v in self.edges:
            if u not in vertex_set or v not in vertex_set:
                raise InfeasibleError(f"edge ({u}, {v}) uses an unknown vertex")
            if u == v:
                raise InfeasibleError("self-loops are not allowed")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree(self, vertex: int) -> int:
        return sum(1 for u, v in self.edges if vertex in (u, v))

    def is_cover(self, cover: Sequence[int]) -> bool:
        chosen = set(cover)
        return all(u in chosen or v in chosen for u, v in self.edges)


def random_cubic_graph(n_vertices: int, seed: int | None = 0) -> VertexCoverInstance:
    """A random (near-)cubic graph via networkx's random regular generator.

    ``n_vertices`` must be even for a 3-regular graph to exist; smaller odd
    inputs fall back to degree 2 so the generator never fails.
    """
    if n_vertices < 4:
        raise InfeasibleError("random_cubic_graph needs at least 4 vertices")
    degree = 3 if n_vertices % 2 == 0 else 2
    graph = nx.random_regular_graph(degree, n_vertices, seed=seed)
    return VertexCoverInstance(
        tuple(sorted(graph.nodes)),
        tuple(sorted(tuple(sorted(edge)) for edge in graph.edges)),
    )


def greedy_vertex_cover(instance: VertexCoverInstance) -> list[int]:
    """The classical 2-approximation (take both endpoints of a maximal matching)."""
    cover: set[int] = set()
    for u, v in instance.edges:
        if u not in cover and v not in cover:
            cover.add(u)
            cover.add(v)
    return sorted(cover)


def exact_vertex_cover(
    instance: VertexCoverInstance, max_vertices: int = 24
) -> list[int]:
    """Exact minimum vertex cover by exhaustive search (small graphs only)."""
    if instance.n_vertices > max_vertices:
        raise InfeasibleError(
            f"exact_vertex_cover limited to {max_vertices} vertices"
        )
    for size in range(instance.n_vertices + 1):
        for candidate in itertools.combinations(instance.vertices, size):
            if instance.is_cover(candidate):
                return list(candidate)
    raise InfeasibleError("no vertex cover exists")  # pragma: no cover


def _copy_function(output_names: Sequence[str], input_names: Sequence[str]):
    def function(x: Mapping[str, int]) -> dict[str, int]:
        value = 0
        for name in input_names:
            value ^= int(x[name])
        return {name: value for name in output_names}

    return function


def vertex_cover_to_secure_view(instance: VertexCoverInstance) -> SecureViewProblem:
    """The Figure-5 reduction from vertex cover (unit costs, γ = 1)."""
    modules: list[Module] = []
    vertex_inputs: dict[int, list[Attribute]] = {v: [] for v in instance.vertices}

    # Edge modules x_uv: one external input, one output per endpoint.
    for index, (u, v) in enumerate(instance.edges):
        source = Attribute(f"e{index}_in", BOOLEAN, cost=1.0)
        out_u = Attribute(f"e{index}_to_{u}", BOOLEAN, cost=1.0)
        out_v = Attribute(f"e{index}_to_{v}", BOOLEAN, cost=1.0)
        modules.append(
            Module(
                f"x_{u}_{v}",
                [source],
                [out_u, out_v],
                _copy_function([out_u.name, out_v.name], [source.name]),
                private=True,
            )
        )
        vertex_inputs[u].append(out_u)
        vertex_inputs[v].append(out_v)

    # Vertex modules y_v: forward one data item to the collector z.
    collector_inputs: list[Attribute] = []
    for v in instance.vertices:
        inputs = vertex_inputs[v]
        if not inputs:
            inputs = [Attribute(f"isolated_{v}", BOOLEAN, cost=1.0)]
        output = Attribute(f"y{v}_out", BOOLEAN, cost=1.0)
        collector_inputs.append(output)
        modules.append(
            Module(
                f"y_{v}",
                inputs,
                [output],
                _copy_function([output.name], [a.name for a in inputs]),
                private=True,
            )
        )

    final = Attribute("z_out", BOOLEAN, cost=1.0)
    modules.append(
        Module(
            "z",
            collector_inputs,
            [final],
            _copy_function([final.name], [a.name for a in collector_inputs]),
            private=True,
        )
    )
    workflow = Workflow(
        modules, name=f"vertexcover[{instance.n_vertices}v,{instance.n_edges}e]"
    )

    requirements: dict[str, CardinalityRequirementList] = {}
    for u, v in instance.edges:
        requirements[f"x_{u}_{v}"] = CardinalityRequirementList(
            f"x_{u}_{v}", [CardinalityRequirement(0, 1)]
        )
    for v in instance.vertices:
        degree = max(instance.degree(v), 1)
        requirements[f"y_{v}"] = CardinalityRequirementList(
            f"y_{v}",
            [CardinalityRequirement(degree, 0), CardinalityRequirement(0, 1)],
        )
    requirements["z"] = CardinalityRequirementList(
        "z", [CardinalityRequirement(1, 0)]
    )
    return SecureViewProblem(
        workflow,
        gamma=2,
        requirements=requirements,
        meta={"reduction": "vertex_cover", "instance": instance},
    )
