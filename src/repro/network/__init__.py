"""Interconnection-network substrate: topologies, routing, routers, fabric."""
