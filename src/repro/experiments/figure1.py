"""Per-row reproduction of Figure 1 (the paper's results table).

Each ``*_experiment`` function builds a synthetic workload, runs the
corresponding MPC algorithm of the paper together with the relevant
baselines, verifies every solution with an independent certificate checker,
and returns an :class:`~repro.experiments.harness.ExperimentRecord` holding:

* ``metrics`` — measured rounds, measured maximum space per machine,
  achieved objective value and approximation ratio (against an exact optimum
  or an LP bound), and the baselines' values;
* ``bounds`` — the theoretical guarantee of the corresponding theorem
  (approximation ratio / colour count, leading round expression, leading
  space expression) as produced by :mod:`repro.analysis.bounds`.

Every experiment is registered into the unified algorithm registry via
:func:`~repro.registry.register_algorithm`, which is what the Figure-1
driver below, :func:`repro.solve`, the CLI, and the HTTP service all
dispatch through.  Registration order fixes the Figure-1 row order (and
therefore each row's derived seed) — append new rows, never reorder.

The tier-1 tests in ``tests/experiments/test_figure1.py`` call these
functions and assert the "shape" claims: measured rounds within a constant
factor of the theorem's expression, space within its budget, ratio within
the guarantee.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from ..analysis import bounds as theory
from ..backends import Backend, ResultCache, SweepPoint, run_sweep
from ..analysis.ratios import maximization_ratio, minimization_ratio
from ..baselines import (
    exact_matching,
    filtering_unweighted_matching,
    filtering_vertex_cover,
    fractional_matching_bound,
    greedy_b_matching,
    greedy_colouring,
    greedy_matching,
    greedy_set_cover,
    luby_mis,
    lp_set_cover_bound,
    lp_vertex_cover_bound,
    misra_gries_edge_colouring,
)
from ..core.colouring import mpc_edge_colouring, mpc_vertex_colouring
from ..core.hungry_greedy import (
    mpc_greedy_set_cover,
    mpc_maximal_clique,
    mpc_maximal_independent_set,
    mpc_maximal_independent_set_simple,
)
from ..core.local_ratio import (
    mpc_weighted_b_matching,
    mpc_weighted_matching,
    mpc_weighted_set_cover,
    mpc_weighted_vertex_cover,
)
from ..datasets import (
    build_scenario,
    ensure_edge_weights,
    resolve_scenario,
    scenario_params,
)
from ..graphs import (
    Graph,
    densified_graph,
    is_b_matching,
    is_matching,
    is_maximal_clique,
    is_maximal_independent_set,
    is_proper_edge_colouring,
    is_proper_vertex_colouring,
    is_vertex_cover,
)
from ..mapreduce import RunMetrics
from ..registry import iter_algorithms, register_algorithm
from ..registry.solve import _validate_scenario
from ..setcover import (
    SetCoverInstance,
    is_cover,
    random_coverage_instance,
    random_frequency_bounded_instance,
)
from .harness import ExperimentRecord

__all__ = [
    "vertex_cover_experiment",
    "set_cover_f_experiment",
    "set_cover_greedy_experiment",
    "mis_experiment",
    "maximal_clique_experiment",
    "matching_experiment",
    "matching_mu0_experiment",
    "b_matching_experiment",
    "vertex_colouring_experiment",
    "edge_colouring_experiment",
    "figure1_points",
    "run_figure1",
    "scenario_experiments",
]


# --------------------------------------------------------------------------- #
# Scenario plumbing
# --------------------------------------------------------------------------- #
def _experiment_graph(
    scenario: str | None,
    rng: np.random.Generator,
    *,
    experiment: str,
    n: int,
    c: float,
    weighted: bool = False,
    weight_range: tuple[float, float] = (1.0, 100.0),
):
    """The graph workload of one Figure-1 row; returns ``(graph, n, c)``.

    Without a scenario this is the built-in densified generator at the
    requested ``(n, c)``.  With one, the scenario workload is built from
    the point RNG and ``n``/``c`` are refreshed to the actual graph (so
    records and bounds describe what really ran).  Weighted experiments
    get :func:`ensure_edge_weights` semantics: an unweighted scenario
    graph receives random weights from the point RNG, a dataset that
    carries its own weights keeps them.
    """
    if scenario is None:
        graph = densified_graph(
            n, c, rng, weights="uniform" if weighted else None, weight_range=weight_range
        )
        return graph, n, c
    graph = build_scenario(scenario, rng, expect="graph", context=experiment)
    if weighted:
        graph = ensure_edge_weights(graph, rng, weight_range=weight_range)
    return graph, graph.num_vertices, round(graph.densification_exponent(), 4)


def _experiment_instance(
    scenario: str | None,
    rng: np.random.Generator,
    experiment: str,
    num_sets: int,
    num_elements: int,
    generate: Callable[[int, int], SetCoverInstance],
) -> tuple[SetCoverInstance, int, int]:
    """The set cover workload of one Figure-1 row; returns ``(instance, n, m)``.

    Without a scenario this is ``generate(num_sets, num_elements)`` and the
    sizes stay as given; with one, the scenario's instance is built from the
    point RNG and the sizes are its number of sets and elements.
    """
    if scenario is None:
        return generate(num_sets, num_elements), num_sets, num_elements
    instance = build_scenario(scenario, rng, expect="setcover", context=experiment)
    return instance, instance.num_sets, instance.num_elements


# --------------------------------------------------------------------------- #
# Records
# --------------------------------------------------------------------------- #
def _record(
    experiment: str,
    scenario: str | None,
    parameters: Mapping[str, object],
    bound: theory.TheoremBound,
    metrics: RunMetrics,
    quality: Mapping[str, float],
    progress: Mapping[str, float],
    *,
    guarantee: str | None = "approximation",
) -> ExperimentRecord:
    """One row's record, before its baselines: the workload parameters, the
    theorem's bounds, and the metrics in the order quality, ``rounds``,
    progress, ``max_space_per_machine``.

    ``guarantee`` names the bound that ``bound.approximation`` is recorded
    under (``"colours"`` on the colouring rows), or is ``None`` on the rows
    whose guarantee is maximality.
    """
    bounds = {} if guarantee is None else {guarantee: bound.approximation}
    return ExperimentRecord(
        experiment=experiment,
        parameters={**parameters, **scenario_params(scenario)},
        metrics={
            **quality,
            "rounds": float(metrics.num_rounds),
            **{key: float(value) for key, value in progress.items()},
            "max_space_per_machine": float(metrics.max_space_per_machine),
        },
        bounds={**bounds, "rounds": bound.rounds, "space_per_machine": bound.space_per_machine},
    )


def _lp_pair(record: ExperimentRecord, weight: float, lp: float) -> None:
    """A cover row's LP lower bound on the optimum and the cover's ratio to it."""
    record.metrics["lp_lower_bound"] = lp
    record.metrics["ratio_vs_lp"] = minimization_ratio(weight, lp)


def _optimum_pair(record: ExperimentRecord, weight: float, graph: Graph) -> None:
    """The exact maximum matching weight and the answer's ratio to it."""
    optimal = exact_matching(graph).weight
    record.metrics["optimal_weight"] = optimal
    record.metrics["ratio_vs_optimal"] = maximization_ratio(weight, optimal)


# --------------------------------------------------------------------------- #
# Covers
# --------------------------------------------------------------------------- #
@register_algorithm(
    "vertex-cover",
    experiment="fig1-vertex-cover",
    kind="graph",
    aliases=("fig1-vertex-cover",),
    guarantee="2-approximation",
    theorem="Theorem 2.4",
    baselines=("filtering-vertex-cover", "lp-lower-bound"),
)
def vertex_cover_experiment(
    rng: np.random.Generator,
    *,
    n: int = 120,
    c: float = 0.45,
    mu: float = 0.25,
    weight_range: tuple[float, float] = (1.0, 20.0),
    include_lp: bool = True,
    scenario: str | None = None,
) -> ExperimentRecord:
    """Figure 1, row "Vertex Cover / weighted / 2 / O(c/µ) / O(n^{1+µ})" (Theorem 2.4)."""
    graph, n, c = _experiment_graph(scenario, rng, experiment="fig1-vertex-cover", n=n, c=c)
    vertex_weights = rng.uniform(*weight_range, size=n)
    result, metrics = mpc_weighted_vertex_cover(graph, vertex_weights, mu, rng)
    record = _record(
        "fig1-vertex-cover", scenario, {"n": n, "m": graph.num_edges, "c": c, "mu": mu},
        theory.vertex_cover_bound(n, graph.num_edges, mu), metrics,
        {"weight": result.weight}, {"sampling_iterations": metrics.notes["sampling_iterations"]},
    )
    record.metrics["total_communication"] = float(metrics.total_communication)
    if include_lp:
        _lp_pair(record, result.weight, lp_vertex_cover_bound(graph, vertex_weights))
    # Baseline: unweighted filtering vertex cover (Lattanzi et al.), evaluated
    # on the same weights for a "who wins" comparison.
    baseline = filtering_vertex_cover(graph, max(1, int(n ** (1 + mu))), rng)
    baseline_weight = float(vertex_weights[np.asarray(baseline.chosen_sets, dtype=np.int64)].sum())
    record.metrics["filtering_weight"] = baseline_weight
    record.valid = is_vertex_cover(graph, result.chosen_sets)
    return record


@register_algorithm(
    "set-cover",
    experiment="fig1-set-cover-f",
    kind="setcover",
    aliases=("fig1-set-cover-f",),
    guarantee="f-approximation",
    theorem="Theorem 2.4",
    baselines=("greedy-set-cover", "lp-lower-bound"),
)
def set_cover_f_experiment(
    rng: np.random.Generator,
    *,
    num_sets: int = 60,
    num_elements: int = 900,
    max_frequency: int = 4,
    mu: float = 0.25,
    include_lp: bool = True,
    scenario: str | None = None,
) -> ExperimentRecord:
    """Figure 1, row "Set Cover / weighted / f / O((c/µ)²) / O(f·n^{1+µ})" (Theorem 2.4)."""
    instance, num_sets, num_elements = _experiment_instance(
        scenario, rng, "fig1-set-cover-f", num_sets, num_elements,
        lambda sets, elements: random_frequency_bounded_instance(sets, elements, max_frequency, rng),
    )
    result, metrics = mpc_weighted_set_cover(instance, mu, rng)
    f = instance.frequency
    record = _record(
        "fig1-set-cover-f", scenario, {"n": num_sets, "m": num_elements, "f": f, "mu": mu},
        theory.set_cover_f_bound(num_sets, num_elements, f, mu), metrics,
        {"weight": result.weight}, {"sampling_iterations": metrics.notes["sampling_iterations"]},
    )
    record.metrics["greedy_weight"] = greedy_set_cover(instance).weight
    if include_lp:
        _lp_pair(record, result.weight, lp_set_cover_bound(instance))
    record.valid = is_cover(instance, result.chosen_sets)
    return record


@register_algorithm(
    "set-cover-greedy",
    experiment="fig1-set-cover-greedy",
    kind="setcover",
    aliases=("fig1-set-cover-greedy",),
    guarantee="(1+ε)·ln∆-approximation",
    theorem="Theorem 4.6",
    baselines=("greedy-set-cover", "lp-lower-bound"),
)
def set_cover_greedy_experiment(
    rng: np.random.Generator,
    *,
    num_sets: int = 220,
    num_elements: int = 60,
    density: float = 0.08,
    mu: float = 0.4,
    epsilon: float = 0.2,
    include_lp: bool = True,
    scenario: str | None = None,
) -> ExperimentRecord:
    """Figure 1, row "Set Cover / weighted / (1+ε)ln∆" (Theorem 4.6)."""
    instance, num_sets, num_elements = _experiment_instance(
        scenario, rng, "fig1-set-cover-greedy", num_sets, num_elements,
        lambda sets, elements: random_coverage_instance(sets, elements, rng, density=density),
    )
    result, metrics = mpc_greedy_set_cover(instance, mu, rng, epsilon=epsilon)
    delta = instance.max_set_size
    record = _record(
        "fig1-set-cover-greedy", scenario,
        {"n": num_sets, "m": num_elements, "delta": delta, "mu": mu, "epsilon": epsilon},
        theory.set_cover_greedy_bound(num_sets, num_elements, delta, mu, epsilon, instance.weight_ratio),
        metrics, {"weight": result.weight}, {"inner_iterations": metrics.notes["inner_iterations"]},
    )
    greedy = greedy_set_cover(instance)
    record.metrics["greedy_weight"] = greedy.weight
    record.metrics["weight_vs_greedy"] = minimization_ratio(result.weight, max(greedy.weight, 1e-12))
    if include_lp:
        _lp_pair(record, result.weight, lp_set_cover_bound(instance))
    record.valid = is_cover(instance, result.chosen_sets)
    return record


# --------------------------------------------------------------------------- #
# Independent set / clique
# --------------------------------------------------------------------------- #
@register_algorithm(
    "mis",
    experiment="fig1-mis",
    kind="graph",
    aliases=("fig1-mis",),
    guarantee="maximal independent set",
    theorem="Theorem A.3 / 3.3",
    baselines=("luby-mis",),
)
def mis_experiment(
    rng: np.random.Generator,
    *,
    n: int = 150,
    c: float = 0.45,
    mu: float = 0.3,
    simple: bool = False,
    scenario: str | None = None,
) -> ExperimentRecord:
    """Figure 1, row "Maximal Indep. Set / O(c/µ) / O(n^{1+µ})" (Theorem A.3 / 3.3)."""
    graph, n, c = _experiment_graph(scenario, rng, experiment="fig1-mis", n=n, c=c)
    if simple:
        result, metrics = mpc_maximal_independent_set_simple(graph, mu, rng)
    else:
        result, metrics = mpc_maximal_independent_set(graph, mu, rng)
    record = _record(
        "fig1-mis" + ("-simple" if simple else ""), scenario,
        {"n": n, "m": graph.num_edges, "c": c, "mu": mu},
        theory.mis_bound(n, graph.num_edges, mu, simple=simple), metrics,
        {"mis_size": float(result.size)}, {"sweeps": metrics.notes["sweeps"]}, guarantee=None,
    )
    luby = luby_mis(graph, rng)
    record.metrics["luby_rounds"] = float(luby.num_iterations)
    record.metrics["luby_size"] = float(luby.size)
    record.valid = is_maximal_independent_set(graph, result.vertices)
    return record


@register_algorithm(
    "maximal-clique",
    experiment="fig1-maximal-clique",
    kind="graph",
    aliases=("fig1-maximal-clique",),
    guarantee="maximal clique",
    theorem="Corollary B.1",
)
def maximal_clique_experiment(
    rng: np.random.Generator,
    *,
    n: int = 90,
    c: float = 0.55,
    mu: float = 0.35,
    scenario: str | None = None,
) -> ExperimentRecord:
    """Figure 1, row "Maximal Clique / O(1/µ) / O(n^{1+µ})" (Corollary B.1)."""
    graph, n, c = _experiment_graph(scenario, rng, experiment="fig1-maximal-clique", n=n, c=c)
    result, metrics = mpc_maximal_clique(graph, mu, rng)
    record = _record(
        "fig1-maximal-clique", scenario, {"n": n, "m": graph.num_edges, "c": c, "mu": mu},
        theory.maximal_clique_bound(n, mu), metrics,
        {"clique_size": float(result.size)}, {"sweeps": metrics.notes["sweeps"]}, guarantee=None,
    )
    record.valid = is_maximal_clique(graph, result.vertices)
    return record


# --------------------------------------------------------------------------- #
# Matchings
# --------------------------------------------------------------------------- #
@register_algorithm(
    "matching",
    experiment="fig1-matching",
    kind="graph",
    aliases=("fig1-matching",),
    guarantee="2-approximation",
    theorem="Theorem 5.6",
    baselines=("greedy-matching", "filtering-matching", "exact-matching"),
)
def matching_experiment(
    rng: np.random.Generator,
    *,
    n: int = 130,
    c: float = 0.45,
    mu: float = 0.25,
    weight_range: tuple[float, float] = (1.0, 100.0),
    include_exact: bool = True,
    scenario: str | None = None,
) -> ExperimentRecord:
    """Figure 1, row "Matching / weighted / 2 / O(c/µ) / O(n^{1+µ})" (Theorem 5.6)."""
    graph, n, c = _experiment_graph(
        scenario, rng, experiment="fig1-matching", n=n, c=c,
        weighted=True, weight_range=weight_range,
    )
    result, metrics = mpc_weighted_matching(graph, mu, rng)
    record = _record(
        "fig1-matching", scenario, {"n": n, "m": graph.num_edges, "c": c, "mu": mu},
        theory.matching_bound(n, graph.num_edges, mu), metrics,
        {"weight": result.weight}, {"sampling_iterations": metrics.notes["sampling_iterations"]},
    )
    record.metrics["greedy_weight"] = greedy_matching(graph).weight
    filtering = filtering_unweighted_matching(graph, max(1, int(n ** (1 + mu))), rng)
    record.metrics["filtering_weight"] = filtering.weight
    if include_exact:
        _optimum_pair(record, result.weight, graph)
    else:
        lp = fractional_matching_bound(graph)
        record.metrics["lp_upper_bound"] = lp
        record.metrics["ratio_vs_lp"] = maximization_ratio(result.weight, lp)
    record.valid = is_matching(graph, result.edge_ids)
    return record


@register_algorithm(
    "matching-mu0",
    experiment="fig1-matching-mu0",
    kind="graph",
    aliases=("fig1-matching-mu0",),
    guarantee="2-approximation",
    theorem="Appendix C",
    baselines=("exact-matching",),
)
def matching_mu0_experiment(
    rng: np.random.Generator,
    *,
    n: int = 150,
    c: float = 0.4,
    weight_range: tuple[float, float] = (1.0, 100.0),
    scenario: str | None = None,
) -> ExperimentRecord:
    """Appendix C: weighted matching with ``O(n)`` space per machine in ``O(log n)`` rounds."""
    graph, n, c = _experiment_graph(
        scenario, rng, experiment="fig1-matching-mu0", n=n, c=c,
        weighted=True, weight_range=weight_range,
    )
    # µ = 0 configuration: η = n.  We pass a tiny µ for the space accounting
    # (the cluster must hold the input) but force the sample budget to n.
    result, metrics = mpc_weighted_matching(graph, 0.05, rng, eta=n)
    record = _record(
        "fig1-matching-mu0", scenario, {"n": n, "m": graph.num_edges, "c": c, "eta": n},
        theory.matching_mu0_bound(n, graph.num_edges), metrics,
        {"weight": result.weight}, {"sampling_iterations": metrics.notes["sampling_iterations"]},
    )
    _optimum_pair(record, result.weight, graph)
    record.valid = is_matching(graph, result.edge_ids)
    return record


@register_algorithm(
    "b-matching",
    experiment="fig1-b-matching",
    kind="graph",
    aliases=("fig1-b-matching",),
    guarantee="(3 − 2/b + 2ε)-approximation",
    theorem="Theorem D.3",
    baselines=("greedy-b-matching",),
)
def b_matching_experiment(
    rng: np.random.Generator,
    *,
    n: int = 90,
    c: float = 0.45,
    b: int = 3,
    mu: float = 0.25,
    epsilon: float = 0.15,
    weight_range: tuple[float, float] = (1.0, 100.0),
    scenario: str | None = None,
) -> ExperimentRecord:
    """Appendix D: ``(3 − 2/b + 2ε)``-approximate weighted b-matching (Theorem D.3)."""
    graph, n, c = _experiment_graph(
        scenario, rng, experiment="fig1-b-matching", n=n, c=c,
        weighted=True, weight_range=weight_range,
    )
    result, metrics = mpc_weighted_b_matching(graph, b, mu, rng, epsilon=epsilon)
    record = _record(
        "fig1-b-matching", scenario,
        {"n": n, "m": graph.num_edges, "c": c, "b": b, "mu": mu, "epsilon": epsilon},
        theory.b_matching_bound(n, graph.num_edges, b, mu, epsilon), metrics,
        {"weight": result.weight}, {},
    )
    greedy = greedy_b_matching(graph, b)
    record.metrics["greedy_weight"] = greedy.weight
    record.metrics["ratio_vs_greedy"] = maximization_ratio(result.weight, greedy.weight)
    record.valid = is_b_matching(graph, result.edge_ids, b)
    return record


# --------------------------------------------------------------------------- #
# Colouring
# --------------------------------------------------------------------------- #
@register_algorithm(
    "vertex-colouring",
    experiment="fig1-vertex-colouring",
    kind="graph",
    aliases=("fig1-vertex-colouring",),
    guarantee="(1+o(1))·∆ colours",
    theorem="Theorem 6.4",
    baselines=("greedy-colouring",),
)
def vertex_colouring_experiment(
    rng: np.random.Generator,
    *,
    n: int = 200,
    c: float = 0.45,
    mu: float = 0.2,
    scenario: str | None = None,
) -> ExperimentRecord:
    """Figure 1, row "Vertex Colouring / (1+o(1))∆ colours / O(1) rounds" (Theorem 6.4)."""
    graph, n, c = _experiment_graph(scenario, rng, experiment="fig1-vertex-colouring", n=n, c=c)
    result, metrics = mpc_vertex_colouring(graph, mu, rng)
    delta = graph.max_degree()
    record = _record(
        "fig1-vertex-colouring", scenario,
        {"n": n, "m": graph.num_edges, "c": c, "mu": mu, "delta": delta},
        theory.colouring_bound(n, graph.num_edges, delta, mu), metrics,
        {"colours_used": float(result.num_colours),
         "colours_over_delta": float(result.num_colours) / max(1, delta)},
        {"num_groups": result.num_groups}, guarantee="colours",
    )
    record.metrics["greedy_colours"] = float(greedy_colouring(graph).num_colours)
    record.valid = is_proper_vertex_colouring(graph, result.colours)
    return record


@register_algorithm(
    "edge-colouring",
    experiment="fig1-edge-colouring",
    kind="graph",
    aliases=("fig1-edge-colouring",),
    guarantee="(1+o(1))·∆ colours",
    theorem="Theorem 6.6",
    baselines=("misra-gries",),
)
def edge_colouring_experiment(
    rng: np.random.Generator,
    *,
    n: int = 140,
    c: float = 0.4,
    mu: float = 0.2,
    scenario: str | None = None,
) -> ExperimentRecord:
    """Figure 1, row "Edge Colouring / (1+o(1))∆ colours / O(1) rounds" (Theorem 6.6)."""
    graph, n, c = _experiment_graph(scenario, rng, experiment="fig1-edge-colouring", n=n, c=c)
    result, metrics = mpc_edge_colouring(graph, mu, rng)
    delta = graph.max_degree()
    record = _record(
        "fig1-edge-colouring", scenario,
        {"n": n, "m": graph.num_edges, "c": c, "mu": mu, "delta": delta},
        theory.colouring_bound(n, graph.num_edges, delta, mu, edges=True), metrics,
        {"colours_used": float(result.num_colours),
         "colours_over_delta": float(result.num_colours) / max(1, delta)},
        {"num_groups": result.num_groups}, guarantee="colours",
    )
    baseline = misra_gries_edge_colouring(graph)
    record.metrics["misra_gries_colours"] = float(len(set(baseline.values())))
    record.valid = is_proper_edge_colouring(graph, result.colours)
    return record


def scenario_experiments(scenario: str) -> list[str]:
    """The Figure-1 rows compatible with a scenario's workload kind."""
    kind = resolve_scenario(scenario).kind
    return [spec.experiment for spec in iter_algorithms() if spec.kind == kind]


def figure1_points(
    seed: int = 0,
    *,
    experiments: list[str] | None = None,
    trials: int = 1,
    scenario: str | None = None,
    cells: Sequence[tuple[str, Mapping[str, object]]] | None = None,
) -> list[SweepPoint]:
    """Build the sweep points for the (selected) Figure-1 experiments.

    Each point's seed is the pair ``(seed, row_index)`` with ``row_index``
    taken from the registry order, so a point's randomness is independent of
    which subset of rows is selected and of the execution backend.
    ``cells`` replaces ``experiments`` with ``(experiment, overrides)``
    pairs, where ``overrides`` are keyword arguments for that row's
    experiment function (e.g. ``("fig1-mis", {"n": 60})``) and a row may
    appear more than once (the grids of :mod:`repro.experiments.grids`).
    ``scenario`` runs every point on that workload instead of its row's
    built-in generator (the spec string travels in the point kwargs, so
    caching and worker processes see it); a scenario of the wrong kind for
    a row raises :class:`~repro.registry.RegistryError` before anything
    runs.
    """
    rows = {spec.experiment: spec for spec in iter_algorithms()}
    if cells is None:
        if experiments is None:
            experiments = scenario_experiments(scenario) if scenario is not None else list(rows)
        cells = [(name, {}) for name in experiments]
    elif experiments is not None:
        raise ValueError("pass experiments or cells, not both")
    row_index = {name: index for index, name in enumerate(rows)}
    points: list[SweepPoint] = []
    for name, params in cells:
        if name not in rows:
            raise KeyError(f"unknown Figure-1 experiment {name!r}")
        params = dict(params)
        # A per-row "scenario" override wins over the sweep-wide one.  The
        # kind check pins file: specs to their content fingerprint, so cache
        # signatures track the dataset's bytes, not just its path.
        row_scenario = _validate_scenario(rows[name], params.pop("scenario", scenario))
        points.append(
            rows[name].build_point(
                params=params,
                scenario=row_scenario,
                seed=(seed, row_index[name]),
                trials=max(1, trials),
            )
        )
    return points


def run_figure1(
    seed: int = 0,
    *,
    experiments: list[str] | None = None,
    trials: int = 1,
    backend: Backend | str | None = None,
    jobs: int | None = None,
    cache: ResultCache | str | None = None,
    scenario: str | None = None,
    cells: Sequence[tuple[str, Mapping[str, object]]] | None = None,
) -> list[ExperimentRecord]:
    """Run the (selected) Figure-1 experiments and return one record per point.

    Points are built by :func:`figure1_points` (one per selected row, or one
    per grid cell with ``cells``) and executed through
    :func:`~repro.backends.run_sweep`, so they can run serially, fanned out
    over worker processes (``backend="mp"``), or against a disk cache; the
    records are identical in every case.  With ``trials > 1`` each point's
    trial records are combined via :func:`aggregate_records`.  With
    ``scenario`` set, rows run on that named or ``file:`` workload; when
    neither ``experiments`` nor ``cells`` is given, the selection defaults
    to the rows compatible with the scenario's workload kind.
    """
    from .harness import aggregate_records

    points = figure1_points(
        seed, experiments=experiments, trials=trials, scenario=scenario, cells=cells
    )
    results = run_sweep(points, backend=backend, jobs=jobs, cache=cache)
    records: list[ExperimentRecord] = []
    for result in results:
        if len(result.records) == 1:
            records.append(result.records[0])
        else:
            records.append(aggregate_records(result.records))
    return records
