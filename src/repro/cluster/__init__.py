"""Cluster substrate: nodes, racks, links, reliable channels, topology.

Models a commodity data center of the kind the paper targets (EC2-like:
two-core nodes, 1 Gbps Ethernet, rack-organised).  All quantities are
simulated — see DESIGN.md "Simulation-time conventions".
"""

from repro.cluster.node import Node, NodeDownError
from repro.cluster.channel import Channel, ChannelClosedError
from repro.cluster.topology import DataCenter, Rack, ClusterSpec

__all__ = [
    "Node",
    "NodeDownError",
    "Channel",
    "ChannelClosedError",
    "DataCenter",
    "Rack",
    "ClusterSpec",
]
