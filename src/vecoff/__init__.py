"""Discrete-event simulator for deadline-bound task offloading at a
roadside compute site, with a pluggable scheduler suite: an offline
swarm optimizer, a per-window swarm search, two trained policies, and
two queue-order baselines."""
