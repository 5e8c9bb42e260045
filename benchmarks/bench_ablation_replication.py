"""A2 ablation: replication-based fault tolerance vs checkpointing.

Quantifies §I's dismissal of replication: "replication-based schemes
take up substantial computational resources, and are not economically
viable for large-scale failures".  For the 55-HAU applications, compares
the node footprint of k-fault-tolerant active replication against
checkpointing with a spare pool, and checks rack-failure survivability.

The cost is a closed form, not a simulation.  Tolerating k failures
takes k+1 replicas of every HAU, each on its own node (and, to survive a
rack failure, in its own rack): nodes = HAUs x (k+1).  Every input stream
is duplicated to each replica: network x (k+1).  A rack failure is
survived iff k+1 <= racks.  Checkpointing needs the HAUs plus a spare
pool: HAUs + spares nodes.
"""

from repro.harness import format_table

HAUS = 55
SPARES = 8
RACKS = 4
CKPT_NODES = HAUS + SPARES


def replication_nodes(k: int) -> int:
    """Nodes k-fault-tolerant active replication occupies."""
    return HAUS * (k + 1)


def compute():
    return [
        [f"k={k}", replication_nodes(k), f"x{k + 1}", "yes" if k + 1 <= RACKS else "no"]
        for k in (0, 1, 2, 3)
    ]


def test_ablation_replication(benchmark):
    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    # the largest k whose replication is no more expensive than checkpointing
    break_even = CKPT_NODES // HAUS - 1
    print("\n" + format_table(
        ["replication", "nodes", "network", "survives rack failure"],
        rows, title="A2 — active replication footprint (55-HAU application)",
    ))
    print(f"checkpointing footprint (55 HAUs + {SPARES} spares): {CKPT_NODES} nodes")
    print(f"break-even k (replication no more expensive): {break_even}")

    # 1-fault replication already exceeds the checkpointing footprint
    assert replication_nodes(1) > CKPT_NODES
    # an 80-node rack failure defeats any affordable replication degree:
    # surviving a whole-rack loss with replicas requires one replica per
    # rack, i.e. k+1 >= racks -> 4x the cluster for our 4-rack layout
    assert replication_nodes(RACKS - 1) == HAUS * RACKS
    assert break_even == 0
