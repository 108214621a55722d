#!/usr/bin/env python3
"""Checkpointed consensus campaign with convergence monitoring.

A production deployment of Alg. 2 runs thousands of states over hours;
this example shows the operational loop: sample in bursts, checkpoint
after each burst, watch the split-half reliability, and stop when the
status estimate is trustworthy.  Interrupting and restarting from the
checkpoint is bit-identical to an uninterrupted run.

Run:  python examples/checkpointed_campaign.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.cloud import (
    consensus_communities,
    polarization,
    sample_cloud,
    split_half_agreement,
)
from repro.cloud.checkpoint import recover_cloud, resume_cloud
from repro.graph.components import largest_connected_component
from repro.graph.datasets import load
from repro.util.faults import truncate_file

graph, _ = largest_connected_component(load("A*_Instruments_core5", seed=0))
print(f"campaign target: consensus attributes for {graph}")

workdir = Path(tempfile.mkdtemp(prefix="repro_campaign_"))
ckpt = workdir / "cloud.npz"

# --- Bursts 1–2: bootstrap and checkpoint. -----------------------------
# checkpoint_path stores the campaign (method, seed, batch size)
# inside the file; keep_checkpoints=2 rotates the previous good file to
# cloud.npz.1 on every later write.
cloud = sample_cloud(graph, 16, seed=42, checkpoint_path=ckpt,
                     keep_checkpoints=2)
print(f"\nburst 1: {cloud.num_states} states, checkpointed to {ckpt.name}")
cloud = resume_cloud(cloud, 32, checkpoint_path=ckpt, keep_checkpoints=2)
print(f"burst 2: {cloud.num_states} states")

# --- Simulate a crash + restart. ---------------------------------------
# Tear the newest checkpoint (as a kill mid-copy would); recover_cloud
# falls back through the rotation chain to the newest loadable file.
truncate_file(ckpt, fraction=0.3)
cloud, campaign, source = recover_cloud(ckpt, graph)
print(f"after simulated crash: recovered {cloud.num_states} states from "
      f"{source.name} (campaign: seed={campaign.seed}, "
      f"method={campaign.method!r})")

# Resume inherits the stored campaign — no need to respell seed=42, and
# respelling it *differently* would raise CheckpointError, not diverge.
target = cloud.num_states
for burst in range(3, 6):
    target *= 2
    cloud = resume_cloud(
        cloud, target, checkpoint_path=ckpt, checkpoint_every=16,
        keep_checkpoints=2,
    )
    reliability = split_half_agreement(graph, cloud.num_states, seed=7)
    print(f"burst {burst}: {cloud.num_states:4d} states, "
          f"split-half reliability {reliability:.3f}")
    if reliability > 0.9:
        print("  -> estimate is reliable; stopping early")
        break

# --- Verify the resumed campaign equals a straight-through run. --------
straight = sample_cloud(graph, cloud.num_states, seed=42)
assert np.array_equal(straight.status(), cloud.status()), "resume drift!"
print(f"\nresumed campaign verified bit-identical to a straight "
      f"{cloud.num_states}-state run")

# --- Read out the consensus picture. ------------------------------------
status = cloud.status()
communities = consensus_communities(cloud, threshold=0.85)
sizes = np.bincount(communities)
print(f"\nconsensus summary after {cloud.num_states} states:")
print(f"  status: mean {status.mean():.3f}, "
      f"90th pct {np.percentile(status, 90):.3f}")
print(f"  polarization: {polarization(cloud):.3f}")
print(f"  communities at 0.85 co-side: {len(sizes)} "
      f"(largest {sizes.max()} vertices)")
print(f"  frustration index <= {cloud.frustration_upper_bound():,}")
