"""Module layering: the proposer is pure geometry and never reaches a backend,
the world and goals know nothing of the graph memory, the oracle reads only
the wire records, the clearance and ray kernels stay inside the world module,
the package runs on numpy alone, no code writes into a frozen record it did
not build, only the protocol module builds request records, only the sensor
builds observations, a fan's bearings are built once, not per step, and the
proposer hands them on in its boundary without a record per ray.  A rule that
two modules once computed each has one home: the cells near a disc in the
world, a request's template in the protocol, the agent's body in the config.

``dynav.backends.protocol`` imports ``dynav.proposer`` for ``CandidateSet``;
an import in the other direction, even one deferred into a function, would
bring the import cycle back.  scipy is a test-only dependency: the tests use
it as a reference, and importing its ``ndimage`` and ``spatial`` would cost
a run about half a second.
"""
import ast
from pathlib import Path

import pytest

from dynav.backends.protocol import TEMPLATES, make_score_request, request_context
from dynav.config import RunConfig
from dynav.geometry import AgentBody
from dynav.goals import DESCRIPTION, GoalSpec
from dynav.policy import propose
from dynav.sensing import sense

from conftest import empty_world, instance_goal, make_pose, run_python

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dynav"


def imported_modules(path: Path):
    """(absolute module name, line, inside a function) of every import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    package = ["dynav"] + list(path.relative_to(SRC).parent.parts)
    in_function = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            in_function.update(id(n) for n in ast.walk(node) if n is not node)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            # ``from . import backends`` names a submodule
            names = [module] + [f"{module}.{a.name}" for a in node.names]
        else:
            continue
        out.extend((name, node.lineno, id(node) in in_function) for name in names)
    return out


def test_resolves_relative_imports():
    # sanity check of the helper itself on the module that does import protocol
    names = {n for n, _, _ in imported_modules(SRC / "policy.py")}
    assert "dynav.backends.protocol" in names and "dynav.proposer" in names


def test_proposer_imports_nothing_from_backends():
    offending = [(n, line) for n, line, _ in imported_modules(SRC / "proposer.py")
                 if n == "dynav.backends" or n.startswith("dynav.backends.")]
    assert offending == []


# a module and the modules it may not import: world objects, generated worlds
# and goals name things by their own rules, not the memory's, and the oracle
# answers from the request's records and columns, not from the goal, memory,
# sensor or world types; the policy leaves a request's template to the protocol
FORBIDDEN_IMPORTS = [
    ("world.py", "dynav.memory"), ("worldgen.py", "dynav.memory"), ("goals.py", "dynav.memory"),
    ("backends/oracle.py", "dynav.memory"), ("backends/oracle.py", "dynav.goals"),
    ("backends/oracle.py", "dynav.sensing"), ("backends/oracle.py", "dynav.world"),
    ("policy.py", "dynav.backends.protocol.TEMPLATES"),
]


def imports_of(module: str, forbidden: str):
    return [(n, line) for n, line, _ in imported_modules(SRC / module)
            if n == forbidden or n.startswith(forbidden + ".")]


def test_imports_of_finds_the_policys_memory_import():
    assert imports_of("policy.py", "dynav.memory")


@pytest.mark.parametrize("module, forbidden", FORBIDDEN_IMPORTS)
def test_module_does_not_import(module, forbidden):
    assert imports_of(module, forbidden) == []


@pytest.mark.parametrize("module", ["proposer.py", "episodes.py"])
def test_no_function_level_imports(module):
    assert [(n, line) for n, line, nested in imported_modules(SRC / module) if nested] == []


# ``WorldMap``'s private clearance and ray kernels: its wall runs and their
# stacked face bounds, the scan over them, the cast against them and the walk
# it falls back on, the cell and border distances, the disc list and its
# cached ray columns, and the world's own list of surfaces for the scan.
# Motion asks ``clearance``, ``clearance_with_nearest``, ``surfaces_along`` or
# ``clearance_along`` and the sensor ``wall_distances`` and ``disc_columns``;
# which cells can matter is the world's business.
WORLD_KERNEL = {"_wall_runs", "_runs", "_run_faces", "_faces", "_scan", "_cast", "_walk",
                "_cell_rect_distance", "_clamp_to_cell", "_discs", "_columns", "_surfaces",
                "_everywhere", "_border_distance"}


def kernel_uses(path: Path):
    """(name, line) of every attribute or string naming a kernel member."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(n.attr if isinstance(n, ast.Attribute) else n.value, n.lineno)
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr in WORLD_KERNEL
            or isinstance(n, ast.Constant) and n.value in WORLD_KERNEL]


def test_kernel_uses_finds_the_world_modules_own_uses():
    assert {name for name, _ in kernel_uses(SRC / "world.py")} == WORLD_KERNEL


def test_world_kernel_stays_in_the_world_module():
    found = [(str(path.relative_to(SRC)), name, line)
             for path in sorted(SRC.rglob("*.py")) if path != SRC / "world.py"
             for name, line in kernel_uses(path)]
    assert found == []


def test_no_module_imports_scipy():
    found = [(str(path.relative_to(SRC)), line)
             for path in sorted(SRC.rglob("*.py"))
             for name, line, _ in imported_modules(path)
             if name == "scipy" or name.startswith("scipy.")]
    assert found == []


def test_child_interpreters_write_no_bytecode(tmp_path):
    assert run_python("import sys; print(sys.dont_write_bytecode)", tmp_path) == "True"


def test_cli_import_and_run_leave_scipy_out(tmp_path):
    assert run_python("import sys, dynav.cli; print('scipy' in sys.modules)", tmp_path) == "False"
    spec = ROOT / "specs" / "multigoal_demo.json"
    out = run_python(
        "import contextlib, io, sys\n"
        "from dynav.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['run', '--episodes', {str(spec)!r}, '--out', 'out'])\n"
        "print(code, 'scipy' in sys.modules)", tmp_path)
    assert out == "0 False"


def test_exact_clearance_ties_leave_scipy_out(tmp_path):
    """The one-cell slot of ``test_kernels_exact``: each cell centre in column
    29 lies exactly as far from the wall cell on its left as from the one on
    its right, and the nearest points differ."""
    out = run_python(
        "import sys\n"
        "import numpy as np\n"
        "from dynav.world import WorldMap\n"
        "grid = np.zeros((50, 60), dtype=np.uint8)\n"
        "grid[0, :] = grid[-1, :] = grid[:, 0] = grid[:, -1] = 1\n"
        "grid[20:32, 25:32] = 1\n"
        "grid[20:32, 29] = 0\n"
        "world = WorldMap(grid, 0.1)\n"
        "for iy in range(20, 32):\n"
        "    world.clearance_with_nearest(*world.cell_center(29, iy))\n"
        "print('scipy' in sys.modules)", tmp_path)
    assert out == "False"


def foreign_setattrs(source: str):
    """Line of every ``object.__setattr__`` call whose target is not ``self``."""
    return [n.lineno for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "__setattr__"
            and isinstance(n.func.value, ast.Name) and n.func.value.id == "object"
            and not (n.args and isinstance(n.args[0], ast.Name) and n.args[0].id == "self")]


def test_foreign_setattrs_skips_a_records_own_set_up():
    assert foreign_setattrs("object.__setattr__(self, 'x', 1)\n"
                            "object.__setattr__(obs, 'y', 2)\n") == [2]


def test_frozen_records_are_only_set_up_by_themselves():
    """A frozen record may finish its own ``__post_init__``; no other code
    writes into one, so a value once built is the value every reader sees."""
    found = [(str(path.relative_to(SRC)), line)
             for path in sorted(SRC.rglob("*.py")) for line in foreign_setattrs(path.read_text())]
    assert found == []


REQUEST_RECORDS = {"DecisionRequest", "RequestContext"}


def record_calls(source: str, records=REQUEST_RECORDS, with_arguments: bool = False):
    """(name, line) of every call of one of the ``records`` classes, bare or
    dotted; with ``with_arguments``, only of the calls that pass one."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Call) and (n.args or n.keywords or not with_arguments):
            name = (n.func.id if isinstance(n.func, ast.Name)
                    else n.func.attr if isinstance(n.func, ast.Attribute) else None)
            if name in records:
                found.append((name, n.lineno))
    return sorted(found, key=lambda f: f[1])


def test_record_calls_finds_bare_and_dotted_calls():
    assert record_calls("DecisionRequest(1)\n"
                        "p.RequestContext(2)\n"
                        "isinstance(r, DecisionRequest)\n") == [
        ("DecisionRequest", 1), ("RequestContext", 2)]


def test_record_calls_can_keep_the_calls_with_arguments():
    assert record_calls("AgentBody()\n"
                        "AgentBody(0.2)\n"
                        "g.AgentBody(radius=r)\n", {"AgentBody"}, with_arguments=True) == [
        ("AgentBody", 2), ("AgentBody", 3)]


def test_the_agents_body_is_built_from_a_config_only_in_the_config_module():
    """``RunConfig.body`` is the one body of a run: elsewhere a body is only
    the default one, as a parameter's default."""
    config = SRC / "config.py"
    assert record_calls(config.read_text(), {"AgentBody"}, with_arguments=True) != []
    found = [(str(path.relative_to(SRC)), line)
             for path in sorted(SRC.rglob("*.py")) if path != config
             for _, line in record_calls(path.read_text(), {"AgentBody"}, with_arguments=True)]
    assert found == []


def test_cell_span_is_imported_only_by_the_world_module():
    """The cells near a disc come from ``WorldMap.disc_cells`` alone."""
    # the scan names each imported member
    assert "dynav.world.WorldMap" in {n for n, _, _ in imported_modules(SRC / "planning.py")}
    found = [(str(path.relative_to(SRC)), line)
             for path in sorted(SRC.rglob("*.py"))
             for name, line, _ in imported_modules(path) if name == "dynav.world.cell_span"]
    assert found == []


@pytest.mark.parametrize("goal", [GoalSpec.name_goal("chair"),
                                  GoalSpec(DESCRIPTION, "chair", ("red",)),
                                  instance_goal(("red",))], ids=lambda g: g.kind)
def test_a_score_request_carries_its_goal_kinds_template(goal):
    obs = sense(empty_world(10.0, 8.0), make_pose(5.0, 4.0), AgentBody(), n_rays=31)
    req = make_score_request(request_context(obs, "s", goal),
                             propose(obs, RunConfig()))
    assert req.template_id == TEMPLATES[goal.kind]


def test_request_records_are_built_only_by_the_protocol_module():
    """One request builder per step: the step's context and its requests
    come from ``dynav.backends.protocol`` alone."""
    protocol = SRC / "backends" / "protocol.py"
    assert {name for name, _ in record_calls(protocol.read_text())} == REQUEST_RECORDS
    found = [(str(path.relative_to(SRC)), name, line)
             for path in sorted(SRC.rglob("*.py")) if path != protocol
             for name, line in record_calls(path.read_text())]
    assert found == []


def test_observations_are_built_only_by_the_sensor():
    """One ray record: the fan's columns come from ``sense`` alone, and every
    other layer reads or hands on the observation it made."""
    sensing = SRC / "sensing.py"
    assert record_calls(sensing.read_text(), {"Observation"}) != []
    found = [(str(path.relative_to(SRC)), name, line)
             for path in sorted(SRC.rglob("*.py")) if path != sensing
             for name, line in record_calls(path.read_text(), {"Observation"})]
    assert found == []


def test_one_fan_shares_one_tuple_of_bearings():
    """Observations of one fan share its ``Fan``, and their contexts share
    the fan's bearings in degrees: a step that rebuilt the fan would not."""
    world, body = empty_world(10.0, 8.0), AgentBody()
    goal = GoalSpec.name_goal("chair")
    a = sense(world, make_pose(5.0, 4.0, 0.0), body, n_rays=31, step=1)
    b = sense(world, make_pose(3.0, 2.0, 75.0), body, n_rays=31, step=2)
    assert a.fan is b.fan
    ctx_a, ctx_b = (request_context(obs, "s", goal) for obs in (a, b))
    assert ctx_a.theta_deg is ctx_b.theta_deg is a.fan.degrees
    assert len(ctx_a.theta_deg) == 31
    # another fan has bearings of its own
    c = sense(world, make_pose(5.0, 4.0, 0.0), body, n_rays=21, step=3)
    assert c.fan is not a.fan and c.fan != a.fan
    assert request_context(c, "s", goal).theta_deg is not ctx_a.theta_deg


def test_propose_hands_on_the_observations_bearings():
    """The boundary a step samples from holds the observation's own fan: a
    proposer that rebuilt the fan per step would not."""
    world, body = empty_world(10.0, 8.0), AgentBody()
    for i in range(3):
        obs = sense(world, make_pose(2.0 + 2.0 * i, 4.0, 60.0 * i), body, n_rays=31, step=i)
        cands = propose(obs, RunConfig())
        assert len(cands) > 0 and cands.points.fan is obs.fan


# what one instance of each class of proposer.py stands for: none is built per ray
PROPOSER_CLASSES = {
    "Boundary": "the boundary of one fan, as columns",
    "Adjustment": "a reply's nudge of one candidate",
    "Candidate": "one sampled candidate",
    "CandidateSet": "one step's candidates",
    "_ConflictTable": "one fan at one theta_delta",
}
RECORD_FACTORIES = {"namedtuple", "NamedTuple", "make_dataclass"}


def test_proposer_defines_no_per_ray_record():
    tree = ast.parse((SRC / "proposer.py").read_text())
    assert {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)} == set(PROPOSER_CLASSES)
    factories = [name for name, _ in record_calls((SRC / "proposer.py").read_text(),
                                                  RECORD_FACTORIES)]
    assert factories == []
