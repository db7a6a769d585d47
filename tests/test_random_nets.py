"""The net backend against a language oracle on random small bounded nets
(ROADMAP item 29).

On a bounded net the optimal alignment cost z(s) is the least distance from
s to a visible trace of a complete run.  A visible trace longer than
|s| + c is farther than c from s, so with c the aligner's cost the traces
up to that length decide z(s): ``net_language`` enumerates them by firing
the arc lists with its own code, and ``naive_edit_distance`` measures them.
A cost below the true optimum leaves no trace within reach, or only
farther ones, so it cannot agree with the oracle.
"""

import random
from fractions import Fraction

import pytest

from alignbound.aligner import alignment_cost, optimal_alignment, optimal_cost
from alignbound.bounds import approximate_log
from alignbound.log import EventLog
from alignbound.proxy import STRATEGIES, StrategyParams

from conftest import naive_edit_distance, net_language, random_bounded_net, random_trace

NET_COUNT = 600


@pytest.fixture(scope="module")
def drawn_nets():
    """``(net, log, language, z)`` for each drawn net: a log of 1-8 variants
    of length 0-5 over a, b, c and the off-net x, the net's language up to
    the longest length any of its traces or the empty trace can need, and
    the oracle's cost of each variant."""
    rng = random.Random(29)
    cases = []
    for _ in range(NET_COUNT):
        net = random_bounded_net(rng)
        traces = [random_trace(rng, "abcx", 0, 5) for _ in range(rng.randint(1, 8))]
        log = EventLog({trace: rng.randint(1, 3) for trace in traces})
        reach = {s: len(s) + optimal_cost(s, net)[0] for s in log.variants}
        language = net_language(net, max([net.min_visible_length, *reach.values()]))
        z = {
            s: min(
                (naive_edit_distance(s, t) for t in language if len(t) <= reach[s]),
                default=None,
            )
            for s in log.variants
        }
        cases.append((net, log, language, z))
    return cases


def test_drawn_nets_are_the_planned_sample(drawn_nets):
    assert len(drawn_nets) == NET_COUNT
    sizes = {len(net.places) for net, *_ in drawn_nets}
    assert min(sizes) >= 2 and max(sizes) <= 8
    # some nets reach more than one marking, and some end elsewhere
    assert any(net.final_marking != net.initial_marking for net, *_ in drawn_nets)
    assert any(len(language) > 1 for _, _, language, _ in drawn_nets)


def test_net_cost_equals_the_language_oracle(drawn_nets):
    for net, log, _, z in drawn_nets:
        for trace in log.variants:
            assert optimal_cost(trace, net)[0] == z[trace], (net, trace)


def test_net_alignment_is_optimal_and_projects_into_the_language(drawn_nets):
    for net, log, language, z in drawn_nets:
        for trace in log.variants:
            result = optimal_alignment(trace, net)
            assert result.cost == alignment_cost(result.alignment) == z[trace]
            assert result.alignment.log_projection == trace
            assert result.alignment.model_projection in language, (net, trace)


def test_min_visible_length_is_the_shortest_visible_trace(drawn_nets):
    for net, _, language, _ in drawn_nets:
        assert net.min_visible_length == min(map(len, language)), net


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_bracket_holds_the_exact_cost(drawn_nets, strategy):
    params = StrategyParams(strategy, Fraction(30), seed=29)
    for net, log, _, z in drawn_nets:
        for row, _ in approximate_log(log, net, params=params).per_variant:
            exact = z[row.trace]
            assert row.lower <= exact <= row.upper, (net, row)
            assert abs(row.estimate - exact) <= row.proxy_distance, (net, row)
