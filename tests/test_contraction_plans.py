"""The trace kernel's plans on the oracle's lattice traces, against a copy
of the one-at-a-time planner they replaced: no plan is wider or costlier."""
import pytest

from commham import lattice, linalg
from commham.lattice import LatticeSpec
from commham.model import gen_toric, ground_projectors, projector_ops
from commham.oracle import _black_first


def reference_plan(ops):
    """Open-wire count after each absorption, and the predicted cost (sum of
    2**|open | ends| over the steps), when each time the operator leaving the
    fewest open wires is absorbed, ties to product order, scanning every
    operator left."""
    users = {}
    for i, op in enumerate(ops):
        for a, label in enumerate(op.labels):
            users.setdefault(label, []).append((i, a))
    wires = [[None] * (2 * op.n_qubits) for op in ops]
    for q, chain in enumerate(users.values()):
        for (i, a), (nxt, b) in zip(chain, chain[1:] + chain[:1]):
            wires[i][ops[i].n_qubits + a] = wires[nxt][b] = (q, i, a)
    ends = [frozenset(x for x in ws if ws.count(x) == 1) for ws in wires]
    todo, open_, widths, cost = list(range(len(ops))), frozenset(), [], 0
    while todo:
        i = min(todo, key=lambda i: len(open_ ^ ends[i]))
        todo.remove(i)
        cost += 2 ** len(open_ | ends[i])
        open_ = open_ ^ ends[i]
        widths.append(len(open_))
    return widths, cost


LADDER = [LatticeSpec(lx, ly) for lx in range(2, 12) for ly in range(2, 12) if lx * ly <= 22] + [
    LatticeSpec(4, 4, "periodic"), LatticeSpec(6, 6, "periodic"),
    LatticeSpec(8, 8), LatticeSpec(20, 4), LatticeSpec(40, 5),
]
ORDERS = {"black-first": _black_first, "plaquette": lattice.plaquettes}


def toric_projectors(spec, order):
    """The toric model's ground projectors on their corners, in the given order."""
    ops = projector_ops(spec, *ground_projectors(gen_toric(spec)))
    return [ops[p] for p in ORDERS[order](spec)]


def plan_size(ends, plan):
    return max(len(out) for *_, out in plan), linalg._plan_cost(ends, plan)[1]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("spec", LADDER, ids=str)
def test_plan_no_wider_or_costlier_than_reference(spec, order, monkeypatch):
    # planners stop at the wire bound; lifted, they plan the whole network
    monkeypatch.setattr(linalg, "_MAX_OPEN_WIRES", 10**6)
    ops = toric_projectors(spec, order)
    widths, cost = reference_plan(ops)
    ends = linalg._wire_network(ops)[1]
    # scanning only the operators on open wires finds the reference's plan
    assert plan_size(ends, linalg._left_deep(ends, linalg._greedy_order(ends))) == (max(widths), cost)
    width, chosen_cost = plan_size(ends, linalg._plan(ends))
    assert width <= max(widths) and chosen_cost <= cost


@pytest.mark.parametrize(
    "spec, order, width",
    [(LatticeSpec(4, 4, "periodic"), "black-first", 16), (LatticeSpec(20, 4), "plaquette", 12),
     (LatticeSpec(8, 8), "black-first", 20), (LatticeSpec(8, 8), "plaquette", 18)],
    ids=str,
)
def test_plan_widths(spec, order, width):
    # the pairwise plan narrows the torus and 20x4 in plaquette order; on
    # 8x8 in plaquette order one operator at a time stays cheaper
    ends = linalg._wire_network(toric_projectors(spec, order))[1]
    assert plan_size(ends, linalg._plan(ends))[0] == width
