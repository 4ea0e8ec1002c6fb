"""The benchmark's episode sets.

objectnav: the pinned set of the acceptance gate 4, i.e. 50 two-room worlds
    (seeds 0-49), start pose ``random_free_pose(world, Random(seed + 1000))``,
    goal ``chair``, episode id ``w<seed>``.
multigoal: GOAT-style episodes on three-room worlds (chair, table and plant
    x2, one ``sign`` hazard), world seeds 0-13.  Goals are
    drawn from the world's non-hazard objects in world order by
    ``name_obj, instance_obj, description_obj = Random(seed).sample(objs, 3)``
    and visited as: the name goal ``name_obj.category``, the description goal
    ``description_obj.category`` with its first attribute, and the instance goal
    with all of ``instance_obj``'s attributes.  Episode ids are
    ``goat-<seed:02d>``; they are inputs, because the oracle hashes them to
    break ties.

The benchmark's ``--seed`` only permutes the order of the episodes, so every
seed runs the same work.  To write the multigoal spec file anew:

    PYTHONPATH=src python3 perfbench/inputs.py --out multigoal.json
"""
from __future__ import annotations

import argparse
import json
import random
from typing import Dict, List, Sequence, Tuple

OBJECTNAV_SEEDS = tuple(range(50))
OBJECTNAV_WORLD = dict(categories=["chair", "table"], rooms=2, objects_per_category=2)

# Seeds 0-29 minus 15 and 22, whose goals fail (see the README), cut to the
# first 14 so that a run fits four CLI runs.
MULTIGOAL_SEEDS = tuple(s for s in range(30) if s not in (15, 22))[:14]
MULTIGOAL_WORLD = dict(rooms=3, categories=["chair", "table", "plant"],
                       objects_per_category=2, hazards=["sign"])
MULTIGOAL_CONSTRAINT = "avoid the caution sign"
MULTIGOAL_MAX_STEPS = 250
MULTIGOAL_MAX_DISTANCE_M = 10000.0


def order(n: int, seed: int) -> List[int]:
    """The seeded order in which a run visits its ``n`` episodes."""
    idx = list(range(n))
    random.Random(seed).shuffle(idx)
    return idx


def objectnav_episode(seed: int):
    """The episode spec of one objectnav world; building it is set-up work."""
    from dynav import worldgen
    from dynav.episodes import EpisodeSpec
    from dynav.geometry import AgentBody
    from dynav.goals import GoalSpec

    world = worldgen.generate_world(worldgen.WorldGenSpec.from_dict(OBJECTNAV_WORLD), seed)
    start = worldgen.random_free_pose(world, random.Random(seed + 1000), AgentBody())
    return EpisodeSpec(episode_id=f"w{seed}", world=world,
                       goals=(GoalSpec.name_goal("chair"),), start=start, seed=seed)


def multigoal_spec(seeds: Sequence[int] = MULTIGOAL_SEEDS) -> Tuple[dict, Dict[str, object]]:
    """The multigoal episode spec file, in the format ``dynav run`` reads,
    and the world of each episode id."""
    from dynav.worldgen import WorldGenSpec, generate_world

    wg = WorldGenSpec.from_dict(MULTIGOAL_WORLD)
    episodes = []
    worlds = {}
    for s in seeds:
        world = worlds[f"goat-{s:02d}"] = generate_world(wg, s)
        objs = [o for o in world.objects if "hazard" not in o.tags]
        name_obj, instance_obj, description_obj = random.Random(s).sample(objs, 3)
        episodes.append({
            "id": f"goat-{s:02d}",
            "seed": s,
            "worldgen": dict(MULTIGOAL_WORLD, seed=s),
            "goals": [
                {"kind": "name", "category": name_obj.category},
                {"kind": "description", "category": description_obj.category,
                 "attributes": [description_obj.attributes[0]]},
                {"kind": "instance", "attributes": list(instance_obj.attributes)},
            ],
            "constraints": [MULTIGOAL_CONSTRAINT],
            "max_steps": MULTIGOAL_MAX_STEPS,
            "max_distance_m": MULTIGOAL_MAX_DISTANCE_M,
        })
    return {"episodes": episodes}, worlds


def objectnav_spec(specs) -> dict:
    """The objectnav episodes as a spec file (start headings in degrees)."""
    import math

    return {"episodes": [{
        "id": sp.episode_id, "seed": sp.seed,
        "worldgen": dict(OBJECTNAV_WORLD, seed=sp.seed),
        "start": {"x": sp.start.x, "y": sp.start.y,
                  "heading_deg": math.degrees(sp.start.heading)},
        "goals": [{"kind": "name", "category": "chair"}],
    } for sp in specs]}


def main() -> None:
    p = argparse.ArgumentParser(description="write the multigoal episode spec file")
    p.add_argument("--out", required=True)
    args = p.parse_args()
    with open(args.out, "w") as fh:
        json.dump(multigoal_spec()[0], fh, indent=1)


if __name__ == "__main__":
    main()
