"""PAR rules: process-boundary safety, including the forwarding trace.

The last two tests are the acceptance pair for the deep pass: a
deliberately-injected closure handed to a supervisor-style forwarding
chain is caught, while the repo's real pool call-sites come back clean.
"""

from pathlib import Path

from repro.quality.graph import analyze_project, build_project_model
from repro.quality.graph.par import check_process_safety, find_submit_sites

REPO_ROOT = Path(__file__).resolve().parents[2]

MANIFEST = 'package = "app"\n\n[layers]\ncore = []\n'

POOL_IMPORT = "from concurrent.futures import ProcessPoolExecutor\n"

SUPERVISOR = (
    POOL_IMPORT
    + "class Supervisor:\n"
    "    def run(self, task, items):\n"
    "        return self._round(task, items)\n"
    "    def _round(self, task, items):\n"
    "        with ProcessPoolExecutor() as pool:\n"
    "            return [pool.submit(task, it) for it in items]\n"
)


def par_findings(factory, files):
    model = build_project_model(factory(files), package="app")
    return check_process_safety(model)


def test_par001_lambda(make_tree_factory):
    findings = par_findings(
        make_tree_factory,
        {
            "app/core/run.py": (
                POOL_IMPORT
                + "def run():\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return pool.submit(lambda: 1)\n"
            ),
        },
    )
    (finding,) = findings
    assert finding.rule == "PAR001"
    assert "lambda" in finding.message


def test_par001_nested_def(make_tree_factory):
    findings = par_findings(
        make_tree_factory,
        {
            "app/core/run.py": (
                POOL_IMPORT
                + "def run(x):\n"
                "    def worker(v):\n"
                "        return v + x\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return pool.submit(worker, 1)\n"
            ),
        },
    )
    (finding,) = findings
    assert finding.rule == "PAR001"
    assert "closes over" in finding.message


def test_par001_bound_method(make_tree_factory):
    findings = par_findings(
        make_tree_factory,
        {
            "app/core/run.py": (
                POOL_IMPORT
                + "class Builder:\n"
                "    def work(self, v):\n"
                "        return v\n"
                "    def run(self):\n"
                "        with ProcessPoolExecutor() as pool:\n"
                "            return pool.submit(self.work, 1)\n"
            ),
        },
    )
    (finding,) = findings
    assert finding.rule == "PAR001"
    assert "bound method" in finding.message


def test_module_level_worker_passes(make_tree_factory):
    findings = par_findings(
        make_tree_factory,
        {
            "app/core/run.py": (
                POOL_IMPORT
                + "def worker(v):\n"
                "    return v\n"
                "def run(items):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return [pool.submit(worker, it) for it in items]\n"
            ),
        },
    )
    assert findings == []


def test_par001_traced_through_forwarding_chain(make_tree_factory):
    """A closure injected into ``sup.run(task, ...)`` is caught two hops
    from the actual ``pool.submit(task, ...)`` call, at the supplying
    site; the module-level worker through the same chain passes."""
    findings = par_findings(
        make_tree_factory,
        {
            "app/core/sup.py": SUPERVISOR,
            "app/core/good.py": (
                "from app.core.sup import Supervisor\n"
                "def _worker(item):\n"
                "    return item\n"
                "def build(items):\n"
                "    sup = Supervisor()\n"
                "    return sup.run(_worker, items)\n"
            ),
            "app/core/bad.py": (
                "from app.core.sup import Supervisor\n"
                "def build(items):\n"
                "    state = {}\n"
                "    def helper(item):\n"
                "        return state\n"
                "    sup = Supervisor()\n"
                "    return sup.run(helper, items)\n"
            ),
        },
    )
    (finding,) = findings
    assert finding.rule == "PAR001"
    assert finding.path == "src/app/core/bad.py"
    assert "helper" in finding.message


def test_par002_lock_argument(make_tree_factory):
    findings = par_findings(
        make_tree_factory,
        {
            "app/core/run.py": (
                "import threading\n"
                + POOL_IMPORT
                + "def work(x, lock):\n"
                "    return x\n"
                "def run(items):\n"
                "    lock = threading.Lock()\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return [pool.submit(work, it, lock) for it in items]\n"
            ),
        },
    )
    (finding,) = findings
    assert finding.rule == "PAR002"
    assert "threading.Lock" in finding.message


def test_par003_worker_global_mutation(make_tree_factory):
    findings = par_findings(
        make_tree_factory,
        {
            "app/core/run.py": (
                POOL_IMPORT
                + "_count = 0\n"
                "def work(x):\n"
                "    global _count\n"
                "    _count = x\n"
                "    return x\n"
                "def run(items):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return [pool.submit(work, it) for it in items]\n"
            ),
        },
    )
    (finding,) = findings
    assert finding.rule == "PAR003"
    assert "_count" in finding.message
    assert finding.line == 5


def test_par003_reaches_transitive_callees(make_tree_factory):
    findings = par_findings(
        make_tree_factory,
        {
            "app/core/state.py": (
                "_mode = None\n"
                "def set_mode(m):\n"
                "    global _mode\n"
                "    _mode = m\n"
            ),
            "app/core/run.py": (
                POOL_IMPORT
                + "from app.core.state import set_mode\n"
                "def work(x):\n"
                "    set_mode(x)\n"
                "    return x\n"
                "def run(items):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return [pool.submit(work, it) for it in items]\n"
            ),
        },
    )
    (finding,) = findings
    assert finding.rule == "PAR003"
    assert finding.path == "src/app/core/state.py"


def test_par003_inline_ignore_suppresses(make_tree_factory):
    root = make_tree_factory(
        {
            "app/core/run.py": (
                POOL_IMPORT
                + "_count = 0\n"
                "def work(x):\n"
                "    global _count\n"
                "    _count = x  # repro: ignore[PAR003]\n"
                "    return x\n"
                "def run(items):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return [pool.submit(work, it) for it in items]\n"
            ),
        },
        MANIFEST,
    )
    assert analyze_project(root, package="app") == []


def test_initializer_checked_for_par001_but_exempt_from_par003(
    make_tree_factory,
):
    # A global write in the initializer is its whole purpose (per-process
    # state setup) — no PAR003.  But a lambda initializer still fails
    # PAR001.
    findings = par_findings(
        make_tree_factory,
        {
            "app/core/run.py": (
                POOL_IMPORT
                + "_flag = False\n"
                "def setup(v):\n"
                "    global _flag\n"
                "    _flag = v\n"
                "def work(x):\n"
                "    return x\n"
                "def run(items):\n"
                "    with ProcessPoolExecutor(initializer=setup) as pool:\n"
                "        return [pool.submit(work, it) for it in items]\n"
            ),
        },
    )
    assert findings == []

    findings = par_findings(
        make_tree_factory,
        {
            "app/core/run.py": (
                POOL_IMPORT
                + "def work(x):\n"
                "    return x\n"
                "def run(items):\n"
                "    with ProcessPoolExecutor(initializer=lambda: None) as pool:\n"
                "        return [pool.submit(work, it) for it in items]\n"
            ),
        },
    )
    (finding,) = findings
    assert finding.rule == "PAR001"
    assert "pool initializer" in finding.message


def test_real_repo_pool_sites_are_found(make_tree_factory):
    model = build_project_model(REPO_ROOT)
    modules_with_sites = {site.module for site in find_submit_sites(model)}
    assert "repro.faults.supervisor" in modules_with_sites


def test_real_repo_call_sites_pass_par(make_tree_factory):
    findings = analyze_project(REPO_ROOT)
    par = [f for f in findings if f.rule.startswith("PAR")]
    assert par == []
