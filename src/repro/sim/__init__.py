"""Discrete-event cluster simulation substrate.

This package stands in for the paper's physical testbeds (SciClone, STEMS):
a deterministic virtual-time engine (:mod:`repro.sim.engine`), queueing
resources (:mod:`repro.sim.resources`), node/disk/NIC models
(:mod:`repro.sim.node`, :mod:`repro.sim.network`), cluster presets
(:mod:`repro.sim.cluster`) and a batch-queue scheduler simulator for the
paper's Figure 1 (:mod:`repro.sim.scheduler`).
"""

from repro.sim.engine import Engine, SimEvent, Timeout, Poll, Process
from repro.sim.resources import Resource, Store, Server
from repro.sim.node import NodeSpec, SimNode
from repro.sim.network import NetworkSpec, SimNetwork
from repro.sim.cluster import (
    ClusterSpec,
    SimCluster,
    sciclone_spec,
    stems_spec,
    xeon_smp_spec,
)
from repro.sim.scheduler import Job, SchedulerSim, synthetic_job_mix

__all__ = [
    "Engine",
    "SimEvent",
    "Timeout",
    "Poll",
    "Process",
    "Resource",
    "Store",
    "Server",
    "NodeSpec",
    "SimNode",
    "NetworkSpec",
    "SimNetwork",
    "ClusterSpec",
    "SimCluster",
    "sciclone_spec",
    "stems_spec",
    "xeon_smp_spec",
    "Job",
    "SchedulerSim",
    "synthetic_job_mix",
]
